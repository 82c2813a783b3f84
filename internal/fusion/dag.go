package fusion

// Op mirrors the engine's op-DAG node (engine.OpSpec). The engine converts
// at its boundary: fusion cannot import engine, because engine imports
// fusion to rewrite jobs at admission.
type Op struct {
	ID   string
	Kind string
	Args []string
	K    int
	Val  float64
	Vals []float64
	Name string
}

// DAGStats summarizes one DAG pass application.
type DAGStats struct {
	Pass      string
	OpsBefore int
	OpsAfter  int
	Fused     int // ops absorbed into a variadic replacement
}

// RewriteDAG applies the op-DAG fusion passes in order: ADD ladders collapse
// into one variadic "addn" (executed by the single-pass ckks.AddMany), then
// sums whose operands are all single-use constant multiplies collapse into
// one "lincomb" (ckks.MulConstAccum). Ops whose IDs appear in protected (job
// outputs) are never absorbed, so every requested result keeps its identity.
// Op IDs must be unique (the engine validates this). The output keeps the
// input's order; an add ladder folds only where each rung is listed before
// the add that consumes it.
func RewriteDAG(ops []Op, protected map[string]bool) ([]Op, []DAGStats) {
	out, addStats := foldAddLadders(ops, protected)
	out, lcStats := foldLinComb(out, protected)
	return out, []DAGStats{addStats, lcStats}
}

// useCounts returns, per op ID, how many times other ops reference it.
func useCounts(ops []Op) map[string]int {
	uses := make(map[string]int)
	for _, op := range ops {
		for _, a := range op.Args {
			uses[a]++
		}
	}
	return uses
}

// foldAddLadders collapses chains and trees of binary adds whose
// intermediates are single-use and unprotected into one variadic sum.
// Addition is associative and the evaluator's scale/level rules agree
// (AddMany checks the same scale compatibility pairwise adds would, and
// truncates to the minimum level like a chain does), so flattening is
// semantics-preserving.
//
// The pass is linear in the total argument count: it first marks which
// add-like ops fold into their consumer, then expands each surviving sum's
// arguments once. An absorbed op has exactly one use, so it is expanded
// exactly once, inside the one sum that absorbs it.
func foldAddLadders(ops []Op, protected map[string]bool) ([]Op, DAGStats) {
	st := DAGStats{Pass: "add-ladder", OpsBefore: len(ops)}
	uses := useCounts(ops)
	addArgs := make(map[string][]string) // add-like op ID -> its args, for ops seen so far
	absorbed := make(map[string]bool)
	for _, op := range ops {
		if !isAddLike(op.Kind) {
			continue
		}
		for _, a := range op.Args {
			if _, ok := addArgs[a]; ok && uses[a] == 1 && !protected[a] {
				absorbed[a] = true
			}
		}
		addArgs[op.ID] = op.Args
	}

	// expand flattens args depth-first in argument order, replacing every
	// absorbed op by its own (expanded) args. The explicit stack keeps a
	// long ladder from recursing once per rung.
	var stack []string
	expand := func(args []string) []string {
		flat := make([]string, 0, len(args))
		for i := len(args) - 1; i >= 0; i-- {
			stack = append(stack, args[i])
		}
		for len(stack) > 0 {
			a := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !absorbed[a] {
				flat = append(flat, a)
				continue
			}
			inner := addArgs[a]
			for i := len(inner) - 1; i >= 0; i-- {
				stack = append(stack, inner[i])
			}
		}
		return flat
	}

	out := make([]Op, 0, len(ops))
	for _, op := range ops {
		if absorbed[op.ID] {
			st.Fused++
			continue
		}
		if isAddLike(op.Kind) {
			if f := expand(op.Args); len(f) > len(op.Args) {
				op.Kind = "addn"
				op.Args = f
			}
		}
		out = append(out, op)
	}
	st.OpsAfter = len(out)
	return out, st
}

func isAddLike(kind string) bool { return kind == "add" || kind == "addn" }

// foldLinComb rewrites a sum whose operands are all single-use, unprotected
// constant multiplies into one linear-combination op carrying the constants:
// addn(mulconst(x₀,c₀), …) → lincomb([x₀,…], [c₀,…]). The engine executes
// it as one rescale over a fused multiply-accumulate instead of one rescale
// and one full traversal per term.
func foldLinComb(ops []Op, protected map[string]bool) ([]Op, DAGStats) {
	st := DAGStats{Pass: "lincomb", OpsBefore: len(ops)}
	uses := useCounts(ops)
	byID := make(map[string]*Op, len(ops))
	for i := range ops {
		byID[ops[i].ID] = &ops[i]
	}

	absorbed := make(map[string]bool)
	out := make([]Op, 0, len(ops))
	for _, op := range ops {
		if isAddLike(op.Kind) {
			terms := make([]*Op, 0, len(op.Args))
			ok := true
			for _, a := range op.Args {
				mc := byID[a]
				if mc == nil || mc.Kind != "mulconst" || uses[a] != 1 || protected[a] {
					ok = false
					break
				}
				terms = append(terms, mc)
			}
			// Duplicate args (add(x, x)) have uses >= 2 and fail the
			// single-use check, so each term is distinct here.
			if ok && len(terms) >= 2 {
				args := make([]string, len(terms))
				vals := make([]float64, len(terms))
				for i, mc := range terms {
					args[i] = mc.Args[0]
					vals[i] = mc.Val
					absorbed[mc.ID] = true
				}
				op.Kind = "lincomb"
				op.Args = args
				op.Vals = vals
			}
		}
		out = append(out, op)
	}
	// The absorbed mulconsts precede their consumer in topological order,
	// so they were appended before being marked; filter them out now.
	final := out[:0]
	for _, op := range out {
		if absorbed[op.ID] {
			st.Fused++
			continue
		}
		final = append(final, op)
	}
	st.OpsAfter = len(final)
	return final, st
}
