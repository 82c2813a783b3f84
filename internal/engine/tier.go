package engine

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Priority tiers and the weighted ready queue.
//
// Every job belongs to a tier (latency | standard | batch). Admission gives
// each tier a capacity share, and ready ops wait in per-tier queues that
// the dispatcher drains by weighted round-robin, so a saturating batch
// tenant can neither take the latency tier's admission slots nor starve its
// ops of workers.

// Job priority tiers.
const (
	TierLatency  = "latency"
	TierStandard = "standard"
	TierBatch    = "batch"
)

// tierOrder lists tiers from highest to lowest dequeue priority.
var tierOrder = []string{TierLatency, TierStandard, TierBatch}

// normalizeTier maps the JobSpec tier (empty = standard) onto a known tier.
func normalizeTier(t string) (string, error) {
	switch t {
	case "":
		return TierStandard, nil
	case TierLatency, TierStandard, TierBatch:
		return t, nil
	}
	return "", fmt.Errorf("engine: unknown tier %q (want latency, standard, or batch)", t)
}

// OverloadError is the typed load-shed rejection returned by Submit when
// admission control refuses a job. It unwraps to ErrBusy so existing
// errors.Is(err, ErrBusy) checks keep working, and carries the reason plus a
// queue-depth-derived retry hint that the HTTP layer surfaces as a 429 with
// a Retry-After header.
type OverloadError struct {
	// Tier the rejected job targeted.
	Tier string
	// Reason is one of "engine_full" (global admission limit),
	// "tier_full" (the tier's capacity share is exhausted), or
	// "tenant_limit" (the tenant's in-flight job cap).
	Reason string
	// RetryAfter estimates when capacity frees up: one second per queued
	// job ahead per worker, capped at 30s. A heuristic, not a promise.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("engine: overloaded (%s, tier=%s), retry after %s", e.Reason, e.Tier, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrBusy) true for every overload rejection.
func (e *OverloadError) Unwrap() error { return ErrBusy }

// ---------------------------------------------------------------------------
// Tier queues: weighted round-robin over per-tier ready queues.

// tierQueues holds ready ops per tier and picks the next one by weighted
// round-robin: each refill grants every tier its weight in credits, and
// tiers are drained in priority order while they have credit. A saturated
// batch tier therefore gets at most weight_batch of every sum(weights)
// dispatches once higher tiers have work. Dispatcher-private except for the
// depth gauges, which the metrics exporter samples.
type tierQueues struct {
	queues  map[string][]*opTask
	weights map[string]int
	credit  map[string]int
	depth   map[string]*atomic.Int64 // ops queued per tier
}

func newTierQueues(weights map[string]int, depth map[string]*atomic.Int64) *tierQueues {
	q := &tierQueues{
		queues:  make(map[string][]*opTask),
		weights: weights,
		credit:  make(map[string]int),
		depth:   depth,
	}
	for _, t := range tierOrder {
		q.credit[t] = weights[t]
	}
	return q
}

// push appends a ready op to its job's tier queue.
func (q *tierQueues) push(task *opTask) {
	t := task.job.tier
	q.queues[t] = append(q.queues[t], task)
	q.depth[t].Add(1)
}

// head returns the tier whose queue should be served next and its head op,
// pruning ops of terminal (failed/expired) jobs as it goes. Returns
// ok=false when every queue is empty.
func (q *tierQueues) head() (string, *opTask, bool) {
	for pass := 0; pass < 2; pass++ {
		for _, t := range tierOrder {
			if q.credit[t] <= 0 && pass == 0 {
				continue
			}
			if task := q.prunedHead(t); task != nil {
				return t, task, true
			}
		}
		// Either no tier with credit has work, or no tier has work at all.
		// Refill credits and take strict priority order on the second pass.
		for _, t := range tierOrder {
			q.credit[t] = q.weights[t]
		}
	}
	return "", nil, false
}

// prunedHead drops ops of terminal jobs from the front of one tier queue
// and returns its live head, if any.
func (q *tierQueues) prunedHead(t string) *opTask {
	queue := q.queues[t]
	for len(queue) > 0 && queue[0].job.terminal() {
		queue = queue[1:]
		q.depth[t].Add(-1)
	}
	q.queues[t] = queue
	if len(queue) == 0 {
		return nil
	}
	return queue[0]
}

// pop removes the head of tier t after it was handed to a worker and
// spends one credit.
func (q *tierQueues) pop(t string) {
	q.queues[t] = q.queues[t][1:]
	if q.credit[t] > 0 {
		q.credit[t]--
	}
	q.depth[t].Add(-1)
}
