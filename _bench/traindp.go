package main

import (
	"fmt"
	"io"
	"time"

	"buffalo/internal/datagen"
	"buffalo/internal/device"
	"buffalo/internal/train"
)

const (
	dpGPUs = 2
	// train-dp runs a fixed K=8 on a 32 MB device: about 30% headroom over
	// its peak, so the loader fault below never fires on it, and its losses
	// can be compared bit for bit with the sequential data-parallel run
	// (same K, same replica count).
	dpBudget = 32 * device.MB
	dpK      = 8
	// The loader fault (README.md): the pipelined loader on a 24 MB device
	// with the K-search runs out of memory in its first iteration on
	// ogbn-products generated from seed 3, where the sequential path fits.
	// It does not fail every time, so it is reproduced by --fault-probe and
	// kept out of the timed workload.
	faultBudget = 24 * device.MB
	faultSeed   = 3
)

// dpPipeline is the loader in front of train-dp and of the fault probe.
var dpPipeline = train.PipelineConfig{Depth: 2, PlanAhead: 2, CacheBudget: 2 * device.MB}

// zeroConfig adds ZeRO-1 with overlapped, bucketed reduce-scatter.
func zeroConfig(cfg train.Config) train.Config {
	cfg.ZeRO1, cfg.ReduceScatter, cfg.CommOverlap = true, true, true
	return cfg
}

func dpConfig(ds *datagen.Dataset, seed int64) train.Config {
	cfg := zeroConfig(trainConfig(ds, seed, dpBudget))
	cfg.MicroBatches = dpK
	return cfg
}

type dpState struct {
	ds       *datagen.Dataset
	dp       *train.DataParallel
	resident int64 // device-0 bytes before the first iteration
	warm     []iterRec
}

// runTrainDP drives two simulated GPUs behind the pipelined loader; one
// operation is one training iteration.
func runTrainDP(rc *runCtx) error {
	st, err := repeatSetup(rc, func() (*dpState, time.Duration, error) {
		return setupTrainDP(rc)
	}, func(s *dpState) { s.dp.Close() })
	if err != nil {
		return err
	}
	dp := st.dp
	defer dp.Close()

	var recs []iterRec
	var h2d, collMs, colls []float64
	var nodes int64
	pool0, cache0 := dp.PoolStats(), dp.CacheStats()
	root := rc.tr.begin("train-dp/timed", 0)
	clock := startPhase()
	for clock.elapsed() < rc.seconds {
		rc.attempted++
		var comm time.Duration
		var coll device.CollectiveBreakdown
		var moved int64
		if rc.trace {
			comm, coll, moved = dp.Cluster.CommTime(), dp.Cluster.Collectives(), transferred(dp)
		}
		id := rc.tr.begin("train.DataParallel.RunIteration", root)
		t := time.Now()
		r, err := dp.RunIteration()
		wall := time.Since(t)
		rc.tr.end(id)
		if err != nil {
			rc.failed++
			rc.fail("iteration %d: %v", len(recs), err)
			break
		}
		if rc.trace {
			c := dp.Cluster.Collectives()
			collMs = append(collMs, ms(dp.Cluster.CommTime()-comm))
			colls = append(colls, float64(c.ReduceScatterCount+c.AllGatherCount-coll.ReduceScatterCount-coll.AllGatherCount))
			h2d = append(h2d, mb(transferred(dp)-moved))
		}
		recs = append(recs, recordIter(&r.IterationResult, wall))
		nodes += trainBatch
		if r.Peak > dpBudget {
			rc.fail("iteration %d: device peak %d over the %d budget", len(recs)-1, r.Peak, dpBudget)
		}
	}
	wall, cpu, steal := clock.stop()
	rc.tr.end(root)
	rc.host.StealPct = steal
	pool, cache := poolDelta(pool0, dp.PoolStats()), dp.CacheStats()
	rc.logf("%d iterations in %v, cpu %v, steal %.2f%%", len(recs), wall, cpu, steal)
	if len(recs) == 0 {
		return fmt.Errorf("no iteration completed")
	}
	setTrainEndToEnd(rc, recs, nodes, wall, cpu)

	if err := dp.Shutdown(); err != nil {
		rc.fail("loader shutdown: %v", err)
	}
	checkNoLiveBytes(rc, "session", dp.Cluster)
	checkDPAgainstSequential(rc, st, recs)

	if !rc.trace {
		return nil
	}
	hits, misses := cache.Hits-cache0.Hits, cache.Misses-cache0.Misses
	rc.set("pipeline.cache_hit_rate", ratio(float64(hits), float64(hits+misses)))
	rc.set("tensor.pool.hit_rate", pool)
	rc.set("device.h2d_mb", median(h2d))
	rc.set("device.collective_ms", median(collMs))
	rc.set("device.collectives", median(colls))

	cfg := dpConfig(st.ds, rc.seed)
	probe, err := newLayerProbe(st.ds, cfg, (dpBudget-st.resident)*9/10, true)
	if err != nil {
		return err
	}
	if err := probeStream(rc, "train-dp/layer-probe", st.ds, cfg, probe); err != nil {
		return err
	}
	setTrainLayerFigures(rc, recs)
	return setTrainKernels(rc, cfg, probe.maxRows)
}

// setupTrainDP generates ogbn-products, builds the pipelined two-GPU
// session and warms it up until every device's feature cache is full.
func setupTrainDP(rc *runCtx) (*dpState, time.Duration, error) {
	ds, load, err := loadDataset("ogbn-products")
	if err != nil {
		return nil, 0, err
	}
	dp, err := train.NewDataParallelPipelined(ds, dpConfig(ds, rc.seed), dpGPUs, dpPipeline)
	if err != nil {
		return nil, 0, err
	}
	st := &dpState{ds: ds, dp: dp, resident: dp.Cluster.GPU(0).Live()}
	rowBytes := int64(ds.FeatDim()) * 4
	err = warmUp(rc, func() error {
		t := time.Now()
		r, err := dp.RunIteration()
		if err == nil {
			st.warm = append(st.warm, recordIter(&r.IterationResult, time.Since(t)))
		}
		return err
	}, func() bool {
		for _, c := range dp.PerDeviceCacheStats() {
			if c.UsedBytes+rowBytes <= dpPipeline.CacheBudget {
				return false
			}
		}
		return true
	})
	if err != nil {
		dp.Close()
		return nil, 0, err
	}
	return st, load, nil
}

// runFaultProbes reproduces the loader fault: n times, a fresh pipelined
// two-GPU session on the fault inputs runs one iteration and shuts down.
// It prints each outcome and how many ran out of device memory.
func runFaultProbes(n int, stdout io.Writer) error {
	ds, err := datagen.Load("ogbn-products", faultSeed)
	if err != nil {
		return err
	}
	cfg := zeroConfig(trainConfig(ds, faultSeed, faultBudget))
	oom := 0
	for i := 0; i < n; i++ {
		dp, err := train.NewDataParallelPipelined(ds, cfg, dpGPUs, dpPipeline)
		if err != nil {
			return err
		}
		r, runErr := dp.RunIteration()
		shutErr := dp.Shutdown()
		switch {
		case device.IsOOM(runErr):
			oom++
			fmt.Fprintf(stdout, "fault probe %d: %v\n", i, runErr)
		case runErr != nil:
			return fmt.Errorf("probe %d: %w", i, runErr)
		case shutErr != nil:
			return fmt.Errorf("probe %d shutdown: %w", i, shutErr)
		default:
			fmt.Fprintf(stdout, "fault probe %d: passed (K %d, peak %d of %d)\n", i, r.K, r.Peak, cfg.MemBudget)
		}
	}
	fmt.Fprintf(stdout, "fault probe: %d of %d first iterations ran out of device memory\n", oom, n)
	return nil
}

// checkNoLiveBytes checks that a shut-down cluster holds no device memory.
func checkNoLiveBytes(rc *runCtx, what string, c *device.Cluster) {
	for i := 0; i < c.Size(); i++ {
		if live := c.GPU(i).Live(); live != 0 {
			rc.fail("%s: %s holds %d bytes after shutdown", what, c.GPU(i).Name(), live)
		}
	}
}

// transferred sums the host-to-device bytes copied to every device.
func transferred(dp *train.DataParallel) int64 {
	var n int64
	for _, s := range dp.Stats() {
		n += s.Transferred
	}
	return n
}

// checkDPAgainstSequential replays every iteration (warm-up and
// timed) on the sequential data-parallel run — same seed, budget, K and
// replica count, synchronous staging, no loader — and checks that each
// loss is bit-identical: the loader may change timing, never results.
// (A single-GPU Session is not bit-identical: two replicas sum their
// micro-batch gradients in a different order.)
func checkDPAgainstSequential(rc *runCtx, st *dpState, timed []iterRec) {
	ref, err := train.NewDataParallel(st.ds, dpConfig(st.ds, rc.seed), dpGPUs)
	if err != nil {
		rc.fail("reference session: %v", err)
		return
	}
	defer ref.Close()
	all := append(append([]iterRec(nil), st.warm...), timed...)
	for i, rec := range all {
		r, err := ref.RunIteration()
		if err != nil {
			rc.fail("reference iteration %d: %v", i, err)
			return
		}
		if r.Loss != rec.loss || r.K != rec.k {
			rc.fail("iteration %d: loss %v K %d vs sequential data-parallel %v K %d", i, rec.loss, rec.k, r.Loss, r.K)
			return
		}
		if r.Peak > dpBudget {
			rc.fail("reference iteration %d: device peak %d over the %d budget", i, r.Peak, dpBudget)
		}
	}
	rc.logf("losses of %d iterations are bit-identical to the sequential data-parallel run", len(all))
	checkLossFalls(rc, pick(all, func(r iterRec) float64 { return float64(r.loss) }))
}
