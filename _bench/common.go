package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"buffalo/internal/datagen"
	"buffalo/internal/gnn"
	"buffalo/internal/nn"
	"buffalo/internal/train"
)

const (
	// setupRepeats is how often a run sets its workload up; setup_s is
	// the median, and the last set-up instance is the one measured.
	setupRepeats = 3
	// Warm-up runs warmOps operations, and more (at most warmMax) until
	// the feature caches are full; see warmUp.
	warmOps, warmMax = 5, 15
	// probeBatches is how many of the workload's batches the traced run
	// feeds through the layer probe.
	probeBatches = 4
	trainBatch   = 1024
	// datasetSeed fixes the synthetic graphs, features and labels, as the
	// paper's datasets are fixed; --seed picks the sampled batches, the
	// initial weights and the request stream. Graphs generated from
	// different seeds differ in hub structure enough to move a run's cost
	// by a quarter, which would drown any change the benchmark should see.
	datasetSeed = 1
)

var fanouts = []int{10, 25}

// trainConfig is the model and batch shape every workload shares:
// GraphSAGE-mean, 2 layers, hidden 64, fanouts 10/25, batch 1024.
func trainConfig(ds *datagen.Dataset, seed, budget int64) train.Config {
	return train.Config{
		System: train.Buffalo,
		Model: gnn.Config{Arch: gnn.SAGE, Aggregator: gnn.Mean, Layers: 2,
			InDim: ds.FeatDim(), Hidden: 64, OutDim: ds.NumClasses, Seed: seed},
		Fanouts:   fanouts,
		BatchSize: trainBatch,
		MemBudget: budget,
		Seed:      seed,
	}
}

// loadDataset generates a registry dataset and reports how long it took.
func loadDataset(name string) (*datagen.Dataset, time.Duration, error) {
	t := time.Now()
	ds, err := datagen.Load(name, datasetSeed)
	return ds, time.Since(t), err
}

// repeatSetup builds the workload setupRepeats times, discarding all but
// the last instance, and records the median set-up and dataset-generation
// times. A collection afterwards keeps the discarded instances' garbage out
// of the timed phase.
func repeatSetup[T any](rc *runCtx, build func() (T, time.Duration, error), discard func(T)) (T, error) {
	var cur T
	var setups, loads []float64
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		v, load, err := build()
		if err != nil {
			var zero T
			return zero, err
		}
		setups = append(setups, time.Since(t).Seconds())
		loads = append(loads, load.Seconds())
		if i > 0 {
			discard(cur)
		}
		cur = v
	}
	rc.set("setup_s", median(setups))
	rc.set("datagen.load_s", median(loads))
	rc.logf("setup %.3fs (median of %v)", median(setups), setups)
	runtime.GC()
	return cur, nil
}

// warmUp runs op warmOps times, and on until full reports the feature
// caches full (at most warmMax operations). Five operations leave the
// tensor pools missing on a few new shapes at most, which the timed
// phase's tensor.pool.hit_rate shows; a fixed count keeps setup_s from
// depending on when a seed's batches stop producing new shapes. Whether
// the caches filled goes into the run's record, so a cold timed phase can
// be told apart from a regression.
func warmUp(rc *runCtx, op func() error, full func() bool) error {
	for i := 0; i < warmMax; i++ {
		if i >= warmOps && full() {
			rc.host.CachesFull = true
			return nil
		}
		if err := op(); err != nil {
			return fmt.Errorf("warm-up operation %d: %w", i, err)
		}
	}
	rc.host.CachesFull = full()
	if !rc.host.CachesFull {
		rc.logf("warm-up: feature caches not full after %d operations; the timed phase starts cold", warmMax)
	}
	return nil
}

// snapshotValues copies out every parameter value of ps, in order.
func snapshotValues(ps *nn.ParamSet) []float32 {
	var dst []float32
	for _, p := range ps.Params() {
		dst = append(dst, p.Value.Data...)
	}
	return dst
}

// restoreValues copies a snapshotValues image back into ps.
func restoreValues(ps *nn.ParamSet, src []float32) {
	for _, p := range ps.Params() {
		src = src[copy(p.Value.Data, src):]
	}
}

// iterRec is what the benchmark keeps of one training iteration.
type iterRec struct {
	wall                                   time.Duration
	loss                                   float32
	k                                      int
	peak, predicted, totalNodes            int64
	crit, hidden, exposedPlan, exposedComm time.Duration
}

func recordIter(r *train.IterationResult, wall time.Duration) iterRec {
	return iterRec{
		wall: wall, loss: r.Loss, k: r.K,
		peak: r.Peak, predicted: r.PredictedPeak, totalNodes: r.TotalNodes,
		crit: r.CriticalPath(), hidden: r.HiddenTransfer,
		exposedPlan: r.ExposedPlanning, exposedComm: r.ExposedComm,
	}
}

// pick maps the records to one float each.
func pick(recs []iterRec, f func(iterRec) float64) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = f(r)
	}
	return out
}

// setTrainEndToEnd sets the end-to-end metrics of a training run from its
// successful timed iterations, the seed nodes they trained, and the
// phase's wall and CPU time.
func setTrainEndToEnd(rc *runCtx, recs []iterRec, nodes int64, wall, cpu time.Duration) {
	walls := pick(recs, func(r iterRec) float64 { return ms(r.wall) })
	prefix := ""
	if rc.trace {
		prefix = "traced."
	}
	rc.set(prefix+"throughput.nodes_per_s", ratio(float64(nodes), wall.Seconds()))
	rc.set(prefix+"cpu.us_per_node", ratio(float64(cpu.Microseconds()), float64(nodes)))
	rc.set(prefix+"latency.p50_ms", median(walls))
	rc.set("sim.iter_ms", median(pick(recs, func(r iterRec) float64 { return ms(r.crit) })))
	rc.set("traced.latency.p99_ms", quantile(walls, 0.99))
	rc.logf("iteration latency p99 %.3fms (reported by the traced run)", quantile(walls, 0.99))
}

// setTrainLayerFigures sets the per-layer metrics the program itself
// returns with every iteration.
func setTrainLayerFigures(rc *runCtx, recs []iterRec) {
	rc.set("schedule.k", median(pick(recs, func(r iterRec) float64 { return float64(r.k) })))
	rc.set("block.nodes", median(pick(recs, func(r iterRec) float64 { return float64(r.totalNodes) })))
	rc.set("memest.error_pct", median(pick(recs, func(r iterRec) float64 {
		return 100 * math.Abs(float64(r.predicted-r.peak)) / float64(r.peak)
	})))
	rc.set("device.peak_mb", mb(maxOf(recs, func(r iterRec) int64 { return r.peak })))
	rc.set("pipeline.hidden_transfer_ms", median(pick(recs, func(r iterRec) float64 { return ms(r.hidden) })))
	rc.set("pipeline.exposed_planning_ms", median(pick(recs, func(r iterRec) float64 { return ms(r.exposedPlan) })))
	rc.set("device.exposed_comm_ms", median(pick(recs, func(r iterRec) float64 { return ms(r.exposedComm) })))
}

func maxOf(recs []iterRec, f func(iterRec) int64) int64 {
	var m int64
	for _, r := range recs {
		m = max(m, f(r))
	}
	return m
}

// checkLossFalls checks that training makes progress: the mean loss of the
// last window of iterations is below that of the first.
func checkLossFalls(rc *runCtx, losses []float64) {
	const window = 8
	if len(losses) < 2*window {
		rc.fail("only %d iterations, need %d to compare loss windows", len(losses), 2*window)
		return
	}
	var first, last float64
	for i := 0; i < window; i++ {
		first += losses[i]
		last += losses[len(losses)-window+i]
	}
	if last >= first {
		rc.fail("mean loss of the last %d iterations %.4f is not below the first %d's %.4f",
			window, last/window, window, first/window)
	}
}
