package fusion

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func protect(ids ...string) map[string]bool {
	m := make(map[string]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

func opByID(ops []Op, id string) *Op {
	for i := range ops {
		if ops[i].ID == id {
			return &ops[i]
		}
	}
	return nil
}

func TestAddLadderFolds(t *testing.T) {
	ops := []Op{
		{ID: "s1", Kind: "add", Args: []string{"a", "b"}},
		{ID: "s2", Kind: "add", Args: []string{"s1", "c"}},
		{ID: "s3", Kind: "add", Args: []string{"s2", "d"}},
	}
	out, stats := RewriteDAG(ops, protect("s3"))
	if len(out) != 1 {
		t.Fatalf("want 1 op after folding, got %d: %+v", len(out), out)
	}
	got := out[0]
	if got.ID != "s3" || got.Kind != "addn" {
		t.Fatalf("want addn op s3, got %+v", got)
	}
	if want := []string{"a", "b", "c", "d"}; !reflect.DeepEqual(got.Args, want) {
		t.Fatalf("args %v, want %v", got.Args, want)
	}
	if stats[0].Fused != 2 {
		t.Fatalf("add-ladder fused %d, want 2", stats[0].Fused)
	}
}

func TestAddLadderRespectsProtectedAndSharedUse(t *testing.T) {
	// s1 is a requested output: it must survive with its identity.
	ops := []Op{
		{ID: "s1", Kind: "add", Args: []string{"a", "b"}},
		{ID: "s2", Kind: "add", Args: []string{"s1", "c"}},
	}
	out, _ := RewriteDAG(ops, protect("s1", "s2"))
	if len(out) != 2 || out[0].Kind != "add" || out[1].Kind != "add" {
		t.Fatalf("protected intermediate was absorbed: %+v", out)
	}

	// s1 feeds two consumers: absorbing it would duplicate its computation.
	ops = []Op{
		{ID: "s1", Kind: "add", Args: []string{"a", "b"}},
		{ID: "s2", Kind: "add", Args: []string{"s1", "c"}},
		{ID: "s3", Kind: "add", Args: []string{"s1", "d"}},
	}
	out, _ = RewriteDAG(ops, protect("s2", "s3"))
	if opByID(out, "s1") == nil {
		t.Fatalf("shared intermediate was absorbed: %+v", out)
	}
}

func TestLinCombFolds(t *testing.T) {
	ops := []Op{
		{ID: "m1", Kind: "mulconst", Args: []string{"x"}, Val: 2.5},
		{ID: "m2", Kind: "mulconst", Args: []string{"y"}, Val: -1.25},
		{ID: "m3", Kind: "mulconst", Args: []string{"z"}, Val: 0.5},
		{ID: "s1", Kind: "add", Args: []string{"m1", "m2"}},
		{ID: "s2", Kind: "add", Args: []string{"s1", "m3"}},
	}
	out, _ := RewriteDAG(ops, protect("s2"))
	if len(out) != 1 {
		t.Fatalf("want 1 op, got %d: %+v", len(out), out)
	}
	got := out[0]
	if got.Kind != "lincomb" || got.ID != "s2" {
		t.Fatalf("want lincomb s2, got %+v", got)
	}
	if want := []string{"x", "y", "z"}; !reflect.DeepEqual(got.Args, want) {
		t.Fatalf("args %v, want %v", got.Args, want)
	}
	if want := []float64{2.5, -1.25, 0.5}; !reflect.DeepEqual(got.Vals, want) {
		t.Fatalf("vals %v, want %v", got.Vals, want)
	}
}

func TestLinCombRequiresAllConstTerms(t *testing.T) {
	// One operand is a plain ciphertext: the sum stays an addn.
	ops := []Op{
		{ID: "m1", Kind: "mulconst", Args: []string{"x"}, Val: 2},
		{ID: "s1", Kind: "add", Args: []string{"m1", "y"}},
	}
	out, _ := RewriteDAG(ops, protect("s1"))
	if opByID(out, "m1") == nil || opByID(out, "s1").Kind != "add" {
		t.Fatalf("partial constant sum must not fold: %+v", out)
	}

	// A mulconst that is itself an output must not be absorbed.
	ops = []Op{
		{ID: "m1", Kind: "mulconst", Args: []string{"x"}, Val: 2},
		{ID: "m2", Kind: "mulconst", Args: []string{"y"}, Val: 3},
		{ID: "s1", Kind: "add", Args: []string{"m1", "m2"}},
	}
	out, _ = RewriteDAG(ops, protect("s1", "m1"))
	if opByID(out, "m1") == nil || opByID(out, "s1").Kind != "add" {
		t.Fatalf("protected mulconst was absorbed: %+v", out)
	}
}

func TestRewriteDAGNoOpOnPlainGraphs(t *testing.T) {
	ops := []Op{
		{ID: "p", Kind: "mul", Args: []string{"a", "b"}},
		{ID: "q", Kind: "rotate", Args: []string{"p"}, K: 3},
	}
	out, stats := RewriteDAG(ops, protect("q"))
	if !reflect.DeepEqual(out, ops) {
		t.Fatalf("rewrite changed a graph with nothing to fuse: %+v", out)
	}
	for _, s := range stats {
		if s.Fused != 0 {
			t.Fatalf("pass %s reported fusions on a plain graph", s.Pass)
		}
	}
}

// foldAddLaddersReference is the direct statement of the add-ladder rule:
// walk the ops in order, keep each add-like op's fully flattened argument
// list, and splice a single-use, unprotected add-like argument's list into
// its consumer. It copies a whole list per rung (quadratic on a ladder), so
// it only serves as the oracle foldAddLadders must match op for op.
func foldAddLaddersReference(ops []Op, protected map[string]bool) ([]Op, DAGStats) {
	st := DAGStats{Pass: "add-ladder", OpsBefore: len(ops)}
	uses := useCounts(ops)
	flat := make(map[string][]string)
	absorbed := make(map[string]bool)
	for _, op := range ops {
		if !isAddLike(op.Kind) {
			continue
		}
		args := make([]string, 0, len(op.Args))
		for _, a := range op.Args {
			if f, ok := flat[a]; ok && uses[a] == 1 && !protected[a] {
				args = append(args, f...)
				absorbed[a] = true
			} else {
				args = append(args, a)
			}
		}
		flat[op.ID] = args
	}
	out := make([]Op, 0, len(ops))
	for _, op := range ops {
		if absorbed[op.ID] {
			st.Fused++
			continue
		}
		if f, ok := flat[op.ID]; ok && len(f) > len(op.Args) {
			op.Kind = "addn"
			op.Args = f
		}
		out = append(out, op)
	}
	st.OpsAfter = len(out)
	return out, st
}

// TestAddLadderMatchesReference compares the linear pass against the
// reference on random DAGs mixing adds, variadic adds and other ops, with
// shared uses, protected outputs, and some ops listed before their
// arguments (which the rule does not fold).
func TestAddLadderMatchesReference(t *testing.T) {
	kinds := []string{"add", "add", "add", "addn", "mul", "rotate"}
	fused := 0
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		names := []string{"x", "y", "z"}
		for i := 0; i < n; i++ {
			names = append(names, fmt.Sprintf("op%d", i))
		}
		ops := make([]Op, n)
		protected := map[string]bool{}
		for i := range ops {
			kind := kinds[r.Intn(len(kinds))]
			nargs := 2
			switch kind {
			case "addn":
				nargs = 2 + r.Intn(3)
			case "rotate":
				nargs = 1
			}
			// Mostly earlier names; one in eight may point forward.
			limit := 3 + i
			if r.Intn(8) == 0 {
				limit = len(names)
			}
			args := make([]string, nargs)
			for k := range args {
				if a := names[r.Intn(limit)]; a != fmt.Sprintf("op%d", i) {
					args[k] = a
				} else {
					args[k] = "x"
				}
			}
			ops[i] = Op{ID: fmt.Sprintf("op%d", i), Kind: kind, Args: args}
			if r.Intn(6) == 0 {
				protected[ops[i].ID] = true
			}
		}
		got, gotStats := foldAddLadders(ops, protected)
		want, wantStats := foldAddLaddersReference(ops, protected)
		if !reflect.DeepEqual(got, want) || gotStats != wantStats {
			t.Fatalf("seed %d: rewrite diverges from the reference\ngot  %+v %+v\nwant %+v %+v",
				seed, gotStats, got, wantStats, want)
		}
		fused += gotStats.Fused
	}
	if fused == 0 {
		t.Fatal("no random DAG folded anything")
	}
	t.Logf("%d ops folded across 200 random DAGs", fused)
}

// addLadder is add(...add(add(x0, x1), x2)..., xn): n ops, only the last
// protected, so the whole chain folds into one addn over n+1 inputs.
func addLadder(n int) ([]Op, map[string]bool) {
	ops := make([]Op, n)
	prev := "x0"
	for i := range ops {
		id := fmt.Sprintf("s%d", i)
		ops[i] = Op{ID: id, Kind: "add", Args: []string{prev, fmt.Sprintf("x%d", i+1)}}
		prev = id
	}
	return ops, protect(prev)
}

// TestAddLadderRewriteScales guards the admission-time rewrite against
// superlinear cost: a job body of n chained adds is a few dozen bytes per
// op, so a rewrite that retains a copy of the flattened list per rung (n²/2
// entries) lets one request exhaust server memory. The per-op allocation
// check at a small n fails fast on such a rewrite; the 100k-op ladder then
// has to fold within a generous time bound.
func TestAddLadderRewriteScales(t *testing.T) {
	allocPerOp := func(n int) float64 {
		ops, protected := addLadder(n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		RewriteDAG(ops, protected)
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	// Linear: a few hundred bytes per op (maps, output ops, the one flat
	// list). A per-rung copy is already ~16 KB per op at n = 2000.
	if b := allocPerOp(2000); b > 4096 {
		t.Fatalf("rewriting a 2000-op add ladder allocated %.0f B/op, want <= 4096", b)
	}

	const n = 100_000
	ops, protected := addLadder(n)
	start := time.Now()
	out, stats := RewriteDAG(ops, protected)
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("rewriting a %d-op add ladder took %v, want <= 10s", n, el)
	}
	if len(out) != 1 || out[0].Kind != "addn" || len(out[0].Args) != n+1 || stats[0].Fused != n-1 {
		t.Fatalf("ladder did not fold to one %d-arg addn: %d ops, fused %d", n+1, len(out), stats[0].Fused)
	}
	for i, a := range out[0].Args {
		if a != fmt.Sprintf("x%d", i) {
			t.Fatalf("arg %d = %q, want x%d (argument order lost)", i, a, i)
		}
	}
}
