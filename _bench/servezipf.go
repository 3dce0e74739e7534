package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"buffalo/internal/datagen"
	"buffalo/internal/device"
	"buffalo/internal/graph"
	"buffalo/internal/sampling"
	"buffalo/internal/serve"
	"buffalo/internal/train"
)

const (
	// serveRate is the open-loop arrival rate in requests per second, far
	// below the server's capacity, so that nothing is shed even when the
	// host stalls the process for a quarter of a second (README.md).
	serveRate   = 500
	serveBudget = 24 * device.MB
	serveCache  = 2 * device.MB
	zipfSkew    = 1.2
	// warmChunk requests (0.2 s of traffic) per warm-up step.
	warmChunk = serveRate / 5
	// probeRequests single requests the correctness probe compares.
	probeRequests = 32
)

// serveConfig is the micro-batching policy under test. MaxWait seals a
// batch every 2 ms whatever the rate, so the executor queue counts stalled
// milliseconds, not requests: the default queue of 2 sealed batches sheds
// on a 4-6 ms stall of the executor (a GC cycle or a burst of steal on a
// 2-core host), and a queue of 16 shed 11 of 12 000 requests at 1000/s on
// a busy host. With 256 the queue outlasts the admission gate, whose
// reservations (~130 KB a queued request against ~19 MB of headroom) hold
// ~140 requests: about 280 ms of a stalled executor at serveRate.
var serveConfig = serve.Config{BatchSize: 32, MaxWait: 2 * time.Millisecond, QueueLimit: 256}

type serveState struct {
	ds       *datagen.Dataset
	sess     *train.InferenceSession
	srv      *serve.Server
	resident int64 // ledger bytes before the server existed
}

func (s *serveState) close() {
	s.srv.Close()
	s.sess.Close()
}

// runServeZipf drives the forward-only InferenceSession behind the
// micro-batching Server with the benchmark's own open-loop generator.
func runServeZipf(rc *runCtx) error {
	st, err := repeatSetup(rc, func() (*serveState, time.Duration, error) {
		return setupServe(rc)
	}, (*serveState).close)
	if err != nil {
		return err
	}
	sess, srv := st.sess, st.srv
	n := int(serveRate * rc.seconds.Seconds())
	classes := int32(st.ds.NumClasses)

	stats0, gpu0, cache0, pool0 := srv.Stats(), sess.GPU.Stats(), sess.CacheStats(), sess.PoolStats()
	root := rc.tr.begin("serve-zipf/timed", 0)
	clock := startPhase()
	lr := openLoop(srv, n, serve.ZipfPicker(st.ds.NumNodes(), zipfSkew)(rc.seed), classes, rc.tr, root)
	wall, cpu, steal := clock.stop()
	rc.tr.end(root)
	rc.host.StealPct = steal
	stats, gpu, cache, pool := srv.Stats(), sess.GPU.Stats(), sess.CacheStats(), sess.PoolStats()
	rc.attempted, rc.failed = int64(n), lr.shed+lr.errs
	rc.logf("%d requests in %v, cpu %v, steal %.2f%%, latency p99 %.3fms, generator lag p99 %.3fms max %.3fms",
		n, wall, cpu, steal, quantile(lr.lat, 0.99), quantile(lr.lag, 0.99), quantile(lr.lag, 1))

	// Outcome checks: every offered request is accounted for, none shed or
	// failed, every class valid, and the server's counters agree.
	if lr.answered+lr.shed+lr.errs != int64(n) {
		rc.fail("answered %d + shed %d + failed %d != offered %d", lr.answered, lr.shed, lr.errs, n)
	}
	if lr.shed > 0 || lr.errs > 0 {
		rc.fail("%d requests shed and %d failed at %d req/s", lr.shed, lr.errs, serveRate)
	}
	if lr.badClass > 0 {
		rc.fail("%d predictions outside [0, %d)", lr.badClass, classes)
	}
	if d := stats.Requests - stats0.Requests; d != int64(n) {
		rc.fail("server counted %d requests, generator offered %d", d, n)
	}
	if d := stats.Responses - stats0.Responses; d != lr.answered {
		rc.fail("server counted %d responses, generator received %d", d, lr.answered)
	}
	if lr.answered == 0 {
		return fmt.Errorf("no request answered")
	}
	batches := stats.Batches - stats0.Batches

	prefix := ""
	if rc.trace {
		prefix = "traced."
	}
	// The offered rate is fixed, so answers per wall second would only
	// read it back; the server's capacity is answers per second of batch
	// execution.
	rc.set(prefix+"throughput.nodes_per_s", ratio(float64(lr.answered), lr.busy.Seconds()))
	rc.set(prefix+"cpu.us_per_node", float64(cpu.Microseconds())/float64(lr.answered))
	rc.set(prefix+"latency.p50_ms", quantile(lr.lat, 0.5))
	rc.set("traced.latency.p99_ms", quantile(lr.lat, 0.99))
	simBusy := (gpu.ComputeTime - gpu0.ComputeTime) + (gpu.TransferTime - gpu0.TransferTime)
	rc.set("sim.iter_ms", ratio(ms(simBusy), float64(batches)))

	srv.Close()
	if live := sess.GPU.Live(); live != st.resident {
		rc.fail("ledger holds %d bytes after Close, %d resident before the server", live, st.resident)
	}
	sess.Close()
	checkServeProbe(rc, st.ds)

	if !rc.trace {
		return nil
	}
	hits, misses := cache.Hits-cache0.Hits, cache.Misses-cache0.Misses
	rc.set("pipeline.cache_hit_rate", ratio(float64(hits), float64(hits+misses)))
	rc.set("tensor.pool.hit_rate", poolDelta(pool0, pool))
	rc.set("device.h2d_mb", ratio(mb(gpu.Transferred-gpu0.Transferred), float64(batches)))
	rc.set("serve.queue_wait_p50_ms", quantile(lr.queueWait, 0.5))
	rc.set("serve.queue_wait_p99_ms", quantile(lr.queueWait, 0.99))
	rc.set("serve.batch_size", ratio(float64(stats.Responses-stats0.Responses), float64(batches)))
	rc.set("serve.exec_ms", quantile(lr.exec, 0.5))
	rc.set("serve.generator_lag_ms", quantile(lr.lag, 0.99))
	return serveLayerProbe(rc, st.ds, n, int(math.Round(ratio(float64(lr.answered), float64(batches)))))
}

// setupServe generates ogbn-arxiv, builds the session and the server, and
// warms them with Zipf traffic (its own stream, not the timed one) until
// the feature cache is full.
func setupServe(rc *runCtx) (*serveState, time.Duration, error) {
	ds, load, err := loadDataset("ogbn-arxiv")
	if err != nil {
		return nil, 0, err
	}
	sess, err := train.NewInferenceSession(ds, trainConfig(ds, rc.seed, serveBudget), serveCache)
	if err != nil {
		return nil, 0, err
	}
	st := &serveState{ds: ds, sess: sess, resident: sess.GPU.Live()}
	if st.srv, err = serve.NewServer(sess, serveConfig); err != nil {
		sess.Close()
		return nil, 0, err
	}
	pick := serve.ZipfPicker(ds.NumNodes(), zipfSkew)(rc.seed + 1)
	rowBytes := int64(ds.FeatDim()) * 4
	err = warmUp(rc, func() error {
		lr := openLoop(st.srv, warmChunk, pick, int32(ds.NumClasses), nil, 0)
		if lr.shed+lr.errs > 0 {
			return fmt.Errorf("%d shed, %d failed", lr.shed, lr.errs)
		}
		return nil
	}, func() bool { return sess.CacheStats().UsedBytes+rowBytes > serveCache })
	if err != nil {
		st.close()
		return nil, 0, err
	}
	return st, load, nil
}

// loadRun is what the open-loop generator saw. Times are in ms, one entry
// per answered request (lag: per issued request).
type loadRun struct {
	lat, queueWait, exec, lag []float64
	answered, shed, errs      int64
	badClass                  int64
	// busy is the executor's time on the answered requests' batches: each
	// request adds its time from batch start to answer over its batch size.
	busy time.Duration
}

// openLoop issues n requests from one goroutine on a fixed schedule —
// request i is due at start + i/serveRate, whatever the server is doing —
// and waits for every answer. Each request's latency runs from when it was
// due, so a stalled generator or server charges the wait to every request
// it delayed; lag records how late each request was issued. With the
// catch-up yield below, a run at serveRate survives whole-process stalls
// of 300 ms; without it, 150 ms; at 1000/s with a queue of 16, 50 ms.
func openLoop(srv *serve.Server, n int, pick serve.Picker, classes int32, tr *tracer, parent int) *loadRun {
	type outcome struct {
		err             error
		class           int32
		batch           int
		lat, wait, exec time.Duration
	}
	outs := make([]outcome, n)
	lag := make([]float64, n)
	var wg sync.WaitGroup
	interval := float64(time.Second) / serveRate
	t0 := time.Now()
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(float64(i) * interval))
		late := true
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
			late = false
		}
		issued := time.Now()
		lag[i] = ms(issued.Sub(due))
		node := pick()
		wg.Add(1)
		go func(i int, node graph.NodeID, due, issued time.Time) {
			defer wg.Done()
			id := tr.begin("serve.Server.Infer", parent)
			p, err := srv.Infer(context.Background(), node)
			end := time.Now()
			tr.end(id)
			outs[i] = outcome{err: err, class: p.Class, batch: p.BatchSize, lat: end.Sub(due),
				wait: p.QueueWait, exec: end.Sub(issued) - p.QueueWait}
		}(i, node, due, issued)
		if late {
			// Catching up after a stall: let the request just spawned and
			// the server's batcher run before issuing the next, or a burst
			// of overdue requests overruns the server's intake channel
			// (64 requests) faster than the batcher can drain it.
			runtime.Gosched()
		}
	}
	wg.Wait()
	lr := &loadRun{lag: lag}
	for _, o := range outs {
		switch {
		case o.err == nil:
			lr.answered++
			lr.lat = append(lr.lat, ms(o.lat))
			lr.queueWait = append(lr.queueWait, ms(o.wait))
			lr.exec = append(lr.exec, ms(o.exec))
			lr.busy += o.exec / time.Duration(max(o.batch, 1))
			if o.class < 0 || o.class >= classes {
				lr.badClass++
			}
		case errors.Is(o.err, serve.ErrOverloaded):
			lr.shed++
		default:
			lr.errs++
		}
	}
	return lr
}

// checkServeProbe answers a probe set through a fresh Server one request at
// a time and the same requests through a directly driven InferenceSession
// built from the same seed; the classes must match. Both sessions see the
// same request sequence, so they draw the same neighbour samples.
func checkServeProbe(rc *runCtx, ds *datagen.Dataset) {
	cfg := trainConfig(ds, rc.seed, serveBudget)
	viaServer, err := train.NewInferenceSession(ds, cfg, serveCache)
	if err != nil {
		rc.fail("probe session: %v", err)
		return
	}
	defer viaServer.Close()
	// A fixed admission charge skips the server's calibration batch, which
	// would advance its session's sampler past the direct one's.
	pcfg := serveConfig
	pcfg.ReservePerRequest = 64 << 10
	srv, err := serve.NewServer(viaServer, pcfg)
	if err != nil {
		rc.fail("probe server: %v", err)
		return
	}
	defer srv.Close()
	direct, err := train.NewInferenceSession(ds, cfg, serveCache)
	if err != nil {
		rc.fail("direct session: %v", err)
		return
	}
	defer direct.Close()
	pick := serve.ZipfPicker(ds.NumNodes(), zipfSkew)(rc.seed + 2)
	for i := 0; i < probeRequests; i++ {
		v := pick()
		p, err := srv.Infer(context.Background(), v)
		if err != nil {
			rc.fail("probe request %d: %v", i, err)
			return
		}
		d, err := direct.Infer([]graph.NodeID{v})
		if err != nil {
			rc.fail("direct request %d: %v", i, err)
			return
		}
		if p.Class != d.Classes[v] {
			rc.fail("probe request %d (node %d): server class %d, direct session class %d", i, v, p.Class, d.Classes[v])
			return
		}
	}
}

// serveLayerProbe regenerates the timed request stream (same picker seed),
// cuts it into batches of the server's mean batch size, and runs spread-out
// batches through a direct InferenceSession (for the program's own
// estimator error and device peak) and through the layer probe.
func serveLayerProbe(rc *runCtx, ds *datagen.Dataset, n, batchSize int) error {
	batchSize = max(batchSize, 1)
	cfg := trainConfig(ds, rc.seed, serveBudget)
	direct, err := train.NewInferenceSession(ds, cfg, serveCache)
	if err != nil {
		return err
	}
	defer direct.Close()
	probe, err := newLayerProbe(ds, cfg, (serveBudget-direct.GPU.Live())*9/10, false)
	if err != nil {
		return err
	}
	pick := serve.ZipfPicker(ds.NumNodes(), zipfSkew)(rc.seed)
	nodes := make([]graph.NodeID, n)
	for i := range nodes {
		nodes[i] = pick()
	}
	rng := rand.New(rand.NewSource(rc.seed))
	const chunks = 4 * probeBatches
	var errPct, sampleMs []float64
	var peak int64
	pr := rc.tr.begin("serve-zipf/layer-probe", 0)
	for c := 0; c < chunks; c++ {
		lo := c * (n - batchSize) / chunks
		reqs := dedup(nodes[lo : lo+batchSize])
		res, err := direct.Infer(reqs)
		if err != nil {
			return err
		}
		errPct = append(errPct, 100*math.Abs(float64(res.PredictedPeak-res.Peak))/float64(res.Peak))
		peak = max(peak, res.Peak)
		id := rc.tr.begin("sampling.SampleBatch", pr)
		t := time.Now()
		b, err := sampling.SampleBatch(ds.Graph, reqs, cfg.Fanouts, rng)
		sampleMs = append(sampleMs, ms(time.Since(t)))
		rc.tr.end(id)
		if err != nil {
			return err
		}
		if err := probe.run(rc.tr, pr, b); err != nil {
			return fmt.Errorf("layer probe: %w", err)
		}
	}
	rc.tr.end(pr)
	probe.report(rc)
	rc.set("sampling.sample_ms", median(sampleMs))
	rc.set("memest.error_pct", median(errPct))
	rc.set("device.peak_mb", mb(peak))

	id := rc.tr.begin("tensor.matmul.serve.gflops", 0)
	v, err := gemmGflops(gemmAB, probe.maxRows, cfg.Model.InDim, cfg.Model.Hidden, rc.seed)
	rc.tr.end(id)
	if err != nil {
		return err
	}
	rc.set("tensor.matmul.serve.gflops", v)
	rc.logf("GEMM probe at %dx%dx%d", probe.maxRows, cfg.Model.InDim, cfg.Model.Hidden)
	return nil
}

// dedup drops repeated nodes, keeping first-seen order (sampling needs
// distinct seeds; the server collapses duplicates the same way).
func dedup(nodes []graph.NodeID) []graph.NodeID {
	seen := make(map[graph.NodeID]bool, len(nodes))
	var out []graph.NodeID
	for _, v := range nodes {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
