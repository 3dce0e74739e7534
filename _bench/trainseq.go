package main

import (
	"fmt"
	"math"
	"time"

	"buffalo/internal/datagen"
	"buffalo/internal/device"
	"buffalo/internal/tensor"
	"buffalo/internal/train"
)

// seqBudget is train-seq's simulated device: small enough that the
// K-search splits each ogbn-arxiv batch into about three micro-batches.
const seqBudget = 24 * device.MB

type seqState struct {
	ds   *datagen.Dataset
	sess *train.Session
	warm []iterRec // warm-up iterations, in order
	// weights[i] is the model's parameter values before iteration i
	// (warm-up and timed), for the per-iteration loss check.
	weights [][]float32
}

// runTrainSeq drives the sequential single-GPU Session: every stage of
// Buffalo's iteration runs inline on the calling goroutine.
func runTrainSeq(rc *runCtx) error {
	st, err := repeatSetup(rc, func() (*seqState, time.Duration, error) {
		return setupTrainSeq(rc)
	}, func(s *seqState) { s.sess.Close() })
	if err != nil {
		return err
	}
	defer st.sess.Close()
	sess := st.sess
	cfg := sess.Cfg

	// Timed phase: one operation is one training iteration.
	var recs []iterRec
	var h2d []float64
	var nodes int64
	pool0 := sess.PoolStats()
	root := rc.tr.begin("train-seq/timed", 0)
	clock := startPhase()
	for clock.elapsed() < rc.seconds {
		rc.attempted++
		st.weights = append(st.weights, snapshotValues(sess.Model.Params))
		pre := sess.GPU.Stats().Transferred
		id := rc.tr.begin("train.Session.RunIteration", root)
		t := time.Now()
		r, err := sess.RunIteration()
		wall := time.Since(t)
		rc.tr.end(id)
		if err != nil {
			rc.failed++
			rc.fail("iteration %d: %v", len(recs), err)
			break
		}
		h2d = append(h2d, mb(sess.GPU.Stats().Transferred-pre))
		recs = append(recs, recordIter(r, wall))
		nodes += int64(cfg.BatchSize)
		if r.Peak > cfg.MemBudget {
			rc.fail("iteration %d: device peak %d over the %d budget", len(recs)-1, r.Peak, cfg.MemBudget)
		}
	}
	wall, cpu, steal := clock.stop()
	rc.tr.end(root)
	rc.host.StealPct = steal
	pool := poolDelta(pool0, sess.PoolStats())
	rc.logf("%d iterations in %v, cpu %v, steal %.2f%%", len(recs), wall, cpu, steal)
	if len(recs) == 0 {
		return fmt.Errorf("no iteration completed")
	}
	setTrainEndToEnd(rc, recs, nodes, wall, cpu)

	checkSeqAgainstUnpartitioned(rc, st, recs)

	if !rc.trace {
		return nil
	}
	probe, err := newLayerProbe(st.ds, cfg, (seqBudget-sess.GPU.Live())*9/10, true)
	if err != nil {
		return err
	}
	if err := probeStream(rc, "train-seq/layer-probe", st.ds, cfg, probe); err != nil {
		return err
	}
	setTrainLayerFigures(rc, recs)
	rc.set("device.h2d_mb", median(h2d))
	rc.set("tensor.pool.hit_rate", pool)
	return setTrainKernels(rc, cfg, probe.maxRows)
}

// setupTrainSeq generates ogbn-arxiv, builds the session and warms it up.
func setupTrainSeq(rc *runCtx) (*seqState, time.Duration, error) {
	ds, load, err := loadDataset("ogbn-arxiv")
	if err != nil {
		return nil, 0, err
	}
	sess, err := train.NewSession(ds, trainConfig(ds, rc.seed, seqBudget))
	if err != nil {
		return nil, 0, err
	}
	st := &seqState{ds: ds, sess: sess}
	err = warmUp(rc, func() error {
		st.weights = append(st.weights, snapshotValues(sess.Model.Params))
		t := time.Now()
		r, err := sess.RunIteration()
		if err == nil {
			st.warm = append(st.warm, recordIter(r, time.Since(t)))
		}
		return err
	}, func() bool { return true })
	if err != nil {
		sess.Close()
		return nil, 0, err
	}
	return st, load, nil
}

// checkSeqAgainstUnpartitioned replays every iteration of the run (warm-up
// and timed) on an unpartitioned session — K=1 on an unbounded device, the
// same seed and so the same batches — starting each from the weights the
// measured iteration started from, and checks each loss within 1e-5
// relative: accumulating gradients over micro-batches must be the
// full-batch step (the paper's Table IV). Restoring the weights keeps
// rounding differences from compounding over a long run's optimizer steps.
func checkSeqAgainstUnpartitioned(rc *runCtx, st *seqState, timed []iterRec) {
	cfg := st.sess.Cfg
	cfg.MicroBatches = 1
	cfg.MemBudget = device.GB
	ref, err := train.NewSession(st.ds, cfg)
	if err != nil {
		rc.fail("reference session: %v", err)
		return
	}
	defer ref.Close()
	all := append(append([]iterRec(nil), st.warm...), timed...)
	worst := 0.0
	for i, rec := range all {
		loss := rec.loss
		restoreValues(ref.Model.Params, st.weights[i])
		r, err := ref.RunIteration()
		if err != nil {
			rc.fail("reference iteration %d: %v", i, err)
			return
		}
		if r.K != 1 {
			rc.fail("reference iteration %d ran K=%d, want 1", i, r.K)
			return
		}
		rel := math.Abs(float64(loss)-float64(r.Loss)) / math.Abs(float64(r.Loss))
		worst = max(worst, rel)
		if rel > 1e-5 {
			rc.fail("iteration %d: loss %v vs unpartitioned %v (relative %.2g)", i, loss, r.Loss, rel)
			return
		}
	}
	rc.logf("losses of %d iterations match the unpartitioned run (worst relative %.2g)", len(all), worst)
	checkLossFalls(rc, pick(all, func(r iterRec) float64 { return float64(r.loss) }))
}

// poolDelta is the tensor-pool hit rate between two snapshots.
func poolDelta(a, b tensor.PoolStats) float64 {
	hits, misses := b.Hits-a.Hits, b.Misses-a.Misses
	return ratio(float64(hits), float64(hits+misses))
}

// setTrainKernels times the three GEMMs of a GraphSAGE layer 0 at the
// largest micro-batch the probe saw: rows × InDim by InDim × Hidden.
func setTrainKernels(rc *runCtx, cfg train.Config, rows int) error {
	if rows == 0 {
		return fmt.Errorf("layer probe saw no micro-batch")
	}
	k, n := cfg.Model.InDim, cfg.Model.Hidden
	pr := rc.tr.begin("tensor/gemm-probe", 0)
	defer rc.tr.end(pr)
	for _, g := range []struct {
		kind gemmKind
		name string
	}{
		{gemmAB, "tensor.matmul.train.gflops"},
		{gemmATB, "tensor.matmul_atb.train.gflops"},
		{gemmABT, "tensor.matmul_abt.train.gflops"},
	} {
		id := rc.tr.begin(g.name, pr)
		v, err := gemmGflops(g.kind, rows, k, n, rc.seed)
		rc.tr.end(id)
		if err != nil {
			return err
		}
		rc.set(g.name, v)
	}
	rc.logf("GEMM probe at %dx%dx%d", rows, k, n)
	return nil
}
