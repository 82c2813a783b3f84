package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/anaheim-sim/anaheim"
	"github.com/anaheim-sim/anaheim/internal/engine"
	"github.com/anaheim-sim/anaheim/internal/obs"
)

// Synthetic many-tenant load driver for the serving runtime: N tenant
// sessions submit closed-loop job streams from a workload mix, cycling
// through the priority tiers, against one engine, and the run reports
// aggregate op throughput and per-tier latency.

// loadTierStats is one tier's latency/throughput summary within a run.
type loadTierStats struct {
	Jobs     int     `json:"jobs"`
	Ops      int     `json:"ops"`
	Rejected int     `json:"rejected"`
	P50Ms    float64 `json:"p50Ms"`
	P99Ms    float64 `json:"p99Ms"`
}

// loadRun is the engine's measured behavior under the load.
type loadRun struct {
	DurationSec         float64                   `json:"durationSec"`
	JobsDone            int                       `json:"jobsDone"`
	OpsDone             int                       `json:"opsDone"`
	Rejected            int                       `json:"rejected"`
	ThroughputOpsPerSec float64                   `json:"throughputOpsPerSec"`
	Tiers               map[string]*loadTierStats `json:"tiers"`
}

// loadReport is the -tenants JSON artifact (also attached to the micro
// report as the "serving" field when both are produced into one file).
type loadReport struct {
	GoVersion string   `json:"goVersion"`
	NumCPU    int      `json:"numCpu"`
	Tenants   int      `json:"tenants"`
	Mix       []string `json:"mix"`
	Params    string   `json:"params"`
	Run       loadRun  `json:"run"`
}

// loadTenant is one synthetic tenant: its session, tier, workload spec
// builder, and latency samples.
type loadTenant struct {
	sess     *anaheim.EngineSession
	tier     string
	kind     string
	spec     anaheim.JobSpec
	opsPer   int
	mu       sync.Mutex
	latency  []float64 // per-job ms
	jobs     int
	rejected int
}

// loadTiers is the tier rotation tenants are assigned from. Starting with
// latency guarantees at least one latency tenant at any -tenants count, so
// the tail-latency comparison always has samples.
var loadTiers = []string{engine.TierLatency, engine.TierStandard, engine.TierBatch}

// parseMix validates the -mix flag.
func parseMix(mix string) ([]string, error) {
	kinds := strings.Split(mix, ",")
	for _, k := range kinds {
		switch k {
		case "logreg", "lintrans", "bootstrap":
		default:
			return nil, fmt.Errorf("anaheim-bench: unknown workload %q in -mix (want logreg, lintrans, bootstrap)", k)
		}
	}
	return kinds, nil
}

// buildLoadTenants creates one engine session per tenant over a shared
// client context (keys and bootstrapper are read-only after construction,
// so N sessions can share them; each session still pays its own key-cache
// residency, which is the multi-tenant shape under test).
func buildLoadTenants(e *anaheim.Engine, client, bootClient *anaheim.Context,
	lt *anaheim.LinearTransform, kinds []string, tenants int) ([]*loadTenant, error) {

	// Shared inputs: one fresh pair for the arithmetic workloads, one
	// level-exhausted ciphertext for bootstrap. Jobs never mutate inputs
	// (every op allocates its output), so sharing is safe.
	u := make([]complex128, client.Params.Slots())
	for i := range u {
		u[i] = complex(float64(i%7)/8, -float64(i%3)/4)
	}
	ctX, err := client.Encrypt(u)
	if err != nil {
		return nil, err
	}
	ctW, err := client.Encrypt(u)
	if err != nil {
		return nil, err
	}
	var ctBoot *anaheim.Ciphertext
	if bootClient != nil {
		vb := make([]complex128, bootClient.Params.Slots())
		for i := range vb {
			vb[i] = complex(float64(i%5)/8, 0)
		}
		ctBoot, err = bootClient.Encrypt(vb)
		if err != nil {
			return nil, err
		}
		ctBoot = bootClient.DropToLevel(ctBoot, 0)
	}

	out := make([]*loadTenant, tenants)
	for i := 0; i < tenants; i++ {
		kind := kinds[i%len(kinds)]
		ctx := client
		if kind == "bootstrap" {
			ctx = bootClient
		}
		sess, err := ctx.AttachSession(e)
		if err != nil {
			return nil, err
		}
		t := &loadTenant{sess: sess, tier: loadTiers[i%len(loadTiers)], kind: kind}
		switch kind {
		case "logreg":
			// Depth-3 inference fragment: dot-product step, square
			// activation, scale.
			t.spec = anaheim.JobSpec{
				SessionID: sess.ID,
				Inputs:    map[string]*anaheim.Ciphertext{"x": ctX, "w": ctW},
				Ops: []anaheim.OpSpec{
					{ID: "d", Op: "mul", Args: []string{"x", "w"}},
					{ID: "s", Op: "square", Args: []string{"d"}},
					{ID: "o", Op: "mulconst", Args: []string{"s"}, Val: 0.25},
				},
				Outputs: []string{"o"},
			}
		case "lintrans":
			sess.RegisterTransform("lt", lt)
			t.spec = anaheim.JobSpec{
				SessionID: sess.ID,
				Inputs:    map[string]*anaheim.Ciphertext{"x": ctX},
				Ops: []anaheim.OpSpec{
					{ID: "t", Op: "lintrans", Args: []string{"x"}, Name: "lt"},
					{ID: "r", Op: "rotate", Args: []string{"t"}, K: 1},
				},
				Outputs: []string{"r"},
			}
		case "bootstrap":
			t.spec = anaheim.JobSpec{
				SessionID: sess.ID,
				Inputs:    map[string]*anaheim.Ciphertext{"x": ctBoot},
				Ops: []anaheim.OpSpec{
					{ID: "b", Op: "bootstrap", Args: []string{"x"}},
				},
				Outputs: []string{"b"},
			}
		}
		t.spec.Tier = t.tier
		t.spec.Deadline = 2 * time.Minute
		t.opsPer = len(t.spec.Ops)
		out[i] = t
	}
	return out, nil
}

// driveLoad runs every tenant's closed submit-wait loop until the deadline.
func driveLoad(e *anaheim.Engine, tenants []*loadTenant, duration time.Duration) {
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	for _, t := range tenants {
		t := t
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				start := time.Now()
				job, err := e.Submit(t.spec)
				if err != nil {
					if errors.Is(err, engine.ErrBusy) {
						t.mu.Lock()
						t.rejected++
						t.mu.Unlock()
						time.Sleep(200 * time.Microsecond)
						continue
					}
					return // spec bug: recorded as zero jobs for this tenant
				}
				if err := job.Wait(context.Background()); err != nil {
					continue
				}
				ms := float64(time.Since(start).Microseconds()) / 1e3
				t.mu.Lock()
				t.latency = append(t.latency, ms)
				t.jobs++
				t.mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// percentile returns the p-th percentile (0..100) of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// runOneLoad executes the tenant fleet against a fresh engine and
// summarizes it.
func runOneLoad(client, bootClient *anaheim.Context, lt *anaheim.LinearTransform,
	kinds []string, tenants int, duration time.Duration) (loadRun, error) {

	e := anaheim.NewEngine(anaheim.EngineConfig{
		MaxActiveJobs:    4 * tenants, // backpressure reachable but not the bottleneck
		MaxJobsPerTenant: 4,
		Obs:              obs.NewRegistry(),
	})
	defer e.Close()

	fleet, err := buildLoadTenants(e, client, bootClient, lt, kinds, tenants)
	if err != nil {
		return loadRun{}, err
	}
	start := time.Now()
	driveLoad(e, fleet, duration)
	elapsed := time.Since(start).Seconds()

	run := loadRun{
		DurationSec: elapsed,
		Tiers:       make(map[string]*loadTierStats),
	}
	perTier := make(map[string][]float64)
	for _, t := range fleet {
		ts := run.Tiers[t.tier]
		if ts == nil {
			ts = &loadTierStats{}
			run.Tiers[t.tier] = ts
		}
		ts.Jobs += t.jobs
		ts.Ops += t.jobs * t.opsPer
		ts.Rejected += t.rejected
		perTier[t.tier] = append(perTier[t.tier], t.latency...)
		run.JobsDone += t.jobs
		run.OpsDone += t.jobs * t.opsPer
		run.Rejected += t.rejected
	}
	for tier, samples := range perTier {
		sort.Float64s(samples)
		run.Tiers[tier].P50Ms = percentile(samples, 50)
		run.Tiers[tier].P99Ms = percentile(samples, 99)
	}
	if elapsed > 0 {
		run.ThroughputOpsPerSec = float64(run.OpsDone) / elapsed
	}
	return run, nil
}

// runLoad is the -tenants entry point: it runs the tenant fleet once and
// writes the JSON report to out.
func runLoad(out io.Writer, tenants int, mix string, duration time.Duration) (*loadReport, error) {
	kinds, err := parseMix(mix)
	if err != nil {
		return nil, err
	}
	client, err := anaheim.NewContext(anaheim.TestParameters(), 41)
	if err != nil {
		return nil, err
	}
	// Rotation keys for rotate(1) plus the load transform's diagonals.
	diags := make(map[int][]complex128)
	for _, d := range []int{0, 1, 3} {
		row := make([]complex128, client.Params.Slots())
		for i := range row {
			row[i] = complex(float64((i+d)%5)/5, 0)
		}
		diags[d] = row
	}
	lt := anaheim.NewLinearTransform(client.Params.Slots(), diags)
	client.GenRotationKeys(append(lt.Rotations(), 1)...)

	var bootClient *anaheim.Context
	for _, k := range kinds {
		if k == "bootstrap" {
			bootClient, err = anaheim.NewContext(anaheim.BootParameters(), 43)
			if err != nil {
				return nil, err
			}
			if err := bootClient.SetupBootstrapping(anaheim.DefaultBootstrapConfig()); err != nil {
				return nil, err
			}
			break
		}
	}

	run, err := runOneLoad(client, bootClient, lt, kinds, tenants, duration)
	if err != nil {
		return nil, err
	}
	rep := &loadReport{
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Tenants:   tenants,
		Mix:       kinds,
		Params:    fmt.Sprintf("logN=%d levels=%d (test preset)", client.Params.LogN(), client.Params.MaxLevel()+1),
		Run:       run,
	}
	fmt.Fprintf(os.Stderr, "load: %d tenants %.1fs: %.0f ops/s, %d jobs, %d rejected\n",
		tenants, run.DurationSec, run.ThroughputOpsPerSec, run.JobsDone, run.Rejected)
	for _, tier := range loadTiers {
		if ts := run.Tiers[tier]; ts != nil {
			fmt.Fprintf(os.Stderr, "load:   %-8s p50 %7.2fms  p99 %7.2fms  (%d jobs)\n", tier, ts.P50Ms, ts.P99Ms, ts.Jobs)
		}
	}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// mergeServing attaches a load report to an existing -micro JSON artifact
// (the -merge flag): BENCH_BASELINE.json then carries both the per-op
// microbenchmarks and the serving-layer numbers in one trajectory file.
func mergeServing(path string, rep *loadReport) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("anaheim-bench: -merge: %w", err)
	}
	var micro microReport
	if err := json.Unmarshal(raw, &micro); err != nil {
		return fmt.Errorf("anaheim-bench: -merge %s is not a -micro report: %w", path, err)
	}
	micro.Serving = rep
	out, err := json.MarshalIndent(&micro, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
