package main

import (
	"fmt"
	"math/rand"
	"time"

	"buffalo/internal/block"
	"buffalo/internal/datagen"
	"buffalo/internal/gnn"
	"buffalo/internal/memest"
	"buffalo/internal/nn"
	"buffalo/internal/sampling"
	"buffalo/internal/schedule"
	"buffalo/internal/tensor"
	"buffalo/internal/train"
)

// layerProbe times the program's layer entry points — the memory estimator
// and scheduler, block generation, the GNN forward and backward passes and
// the optimizer step — on batches the workload itself sampled. It owns a
// model of the workload's configuration, so probing never disturbs the
// session being measured. Only the traced run uses it.
type layerProbe struct {
	ds       *datagen.Dataset
	cfg      train.Config
	spec     memest.ModelSpec
	cc       float64
	memLimit int64
	training bool
	model    *gnn.Model
	arena    *tensor.Arena
	opt      *nn.Adam
	flat     *nn.FlatBuffer

	// One entry per probed batch.
	sampleNodes, planMs, k, genMs, blockNodes, redundant []float64
	fwdMs, bwdMs, stepMs                                 []float64
	// maxRows is the largest layer-0 destination count of any probed
	// micro-batch: the row count of the workload's largest GEMMs.
	maxRows int
}

// newLayerProbe builds a probe for cfg. memLimit is the activation budget
// the scheduler plans against (the session's own limit); training adds the
// backward pass and the optimizer step to every probed batch.
func newLayerProbe(ds *datagen.Dataset, cfg train.Config, memLimit int64, training bool) (*layerProbe, error) {
	model, err := gnn.New(cfg.Model)
	if err != nil {
		return nil, err
	}
	arena := tensor.NewArena(tensor.NewPool())
	model.SetArena(arena)
	p := &layerProbe{
		ds: ds, cfg: cfg, spec: memest.SpecFromConfig(cfg.Model),
		cc:       ds.Graph.ApproxClusteringCoefficient(cfg.Seed, 2000),
		memLimit: memLimit, training: training,
		model: model, arena: arena,
	}
	if training {
		// The same flat layout and optimizer entry point the engine steps.
		if p.flat, err = model.Params.Flatten(32<<10, 1); err != nil {
			return nil, err
		}
		p.opt = nn.NewAdamShard(0.01, 0, p.flat.TotalElems())
	}
	return p, nil
}

// run probes one batch; every timed call gets a span under parent.
func (p *layerProbe) run(tr *tracer, parent int, b *sampling.Batch) error {
	p.sampleNodes = append(p.sampleNodes, float64(len(b.AllNodes())))

	id := tr.begin("schedule.Schedule", parent)
	t := time.Now()
	est, err := memest.New(p.spec, memest.ProfileBatch(b, p.cc))
	if err != nil {
		return fmt.Errorf("memest: %w", err)
	}
	est.ForwardOnly = !p.training
	plan, err := schedule.Schedule(b, est, schedule.Options{MemLimit: p.memLimit, KStart: p.cfg.MicroBatches})
	p.planMs = append(p.planMs, ms(time.Since(t)))
	tr.end(id)
	if err != nil {
		return fmt.Errorf("schedule: %w", err)
	}
	p.k = append(p.k, float64(len(plan.Groups)))

	id = tr.begin("block.Generate", parent)
	t = time.Now()
	mbs := make([]*block.MicroBatch, len(plan.Groups))
	var nodes int64
	for i, g := range plan.Groups {
		if mbs[i], err = block.Generate(b, g.Nodes()); err != nil {
			return fmt.Errorf("block: %w", err)
		}
		nodes += mbs[i].NumNodes()
	}
	p.genMs = append(p.genMs, ms(time.Since(t)))
	tr.end(id)
	// The unpartitioned batch's node count, for the nodes the partition
	// computes twice (Fig 16); not timed.
	whole, err := block.Generate(b, b.Seeds)
	if err != nil {
		return fmt.Errorf("block: %w", err)
	}
	p.blockNodes = append(p.blockNodes, float64(nodes))
	p.redundant = append(p.redundant, float64(nodes-whole.NumNodes()))

	var fwd, bwd time.Duration
	inDim := p.cfg.Model.InDim
	for _, mb := range mbs {
		p.maxRows = max(p.maxRows, mb.Blocks[0].NumDst())
		inputs := mb.InputNodes()
		feats := tensor.New(len(inputs), inDim)
		for i, v := range inputs {
			copy(feats.Row(i), p.ds.FeatureRow(v)[:inDim])
		}
		id = tr.begin("gnn.Model.Forward", parent)
		t = time.Now()
		res, err := p.model.Forward(mb, feats)
		fwd += time.Since(t)
		tr.end(id)
		if err != nil {
			return err
		}
		if p.training {
			labels := make([]int32, len(mb.Outputs))
			for i, v := range mb.Outputs {
				labels[i] = p.ds.Labels[v]
			}
			scale := float32(len(mb.Outputs)) / float32(b.NumOutputNodes())
			_, dLogits, err := nn.CrossEntropy(res.Logits, labels, scale)
			if err != nil {
				return err
			}
			id = tr.begin("gnn.Model.Backward", parent)
			t = time.Now()
			_, err = p.model.Backward(res, dLogits)
			bwd += time.Since(t)
			tr.end(id)
			if err != nil {
				return err
			}
		}
		p.arena.Reset()
	}
	p.fwdMs = append(p.fwdMs, ms(fwd))
	if p.training {
		p.bwdMs = append(p.bwdMs, ms(bwd))
		id = tr.begin("nn.Adam.StepFlat", parent)
		t = time.Now()
		p.opt.StepFlat(p.flat)
		p.stepMs = append(p.stepMs, ms(time.Since(t)))
		tr.end(id)
		p.model.Params.ZeroGrad()
	}
	return nil
}

// report sets the layer timings and the probe-side counts. Workloads that
// get K, node counts or estimator error from the program's own results
// overwrite those afterwards.
func (p *layerProbe) report(rc *runCtx) {
	rc.set("sampling.nodes", median(p.sampleNodes))
	rc.set("schedule.plan_ms", median(p.planMs))
	rc.set("schedule.k", median(p.k))
	rc.set("block.gen_ms", median(p.genMs))
	rc.set("block.nodes", median(p.blockNodes))
	rc.set("block.redundant_nodes", median(p.redundant))
	rc.set("gnn.forward_ms", median(p.fwdMs))
	rc.set("gnn.backward_ms", 0)
	rc.set("nn.step_ms", 0)
	if p.training {
		rc.set("gnn.backward_ms", median(p.bwdMs))
		rc.set("nn.step_ms", median(p.stepMs))
	}
}

// probeStream feeds the probe the first probeBatches batches of a stream
// seeded like the session's sampler, which draws the same batches the
// session trained on first, and times each draw for sampling.sample_ms.
func probeStream(rc *runCtx, name string, ds *datagen.Dataset, cfg train.Config, probe *layerProbe) error {
	stream := sampling.NewStream(ds.Graph, cfg.BatchSize, cfg.Fanouts, cfg.Seed)
	pr := rc.tr.begin(name, 0)
	defer rc.tr.end(pr)
	var sampleMs []float64
	for i := 0; i < probeBatches; i++ {
		id := rc.tr.begin("sampling.Stream.Next", pr)
		t := time.Now()
		b, err := stream.Next()
		sampleMs = append(sampleMs, ms(time.Since(t)))
		rc.tr.end(id)
		if err != nil {
			return err
		}
		if err := probe.run(rc.tr, pr, b); err != nil {
			return fmt.Errorf("layer probe: %w", err)
		}
	}
	probe.report(rc)
	rc.set("sampling.sample_ms", median(sampleMs))
	return nil
}

// gemmKind selects one of the three GEMM entry points of package tensor.
type gemmKind int

const (
	gemmAB  gemmKind = iota // out = A·B      (forward)
	gemmATB                 // out = Aᵀ·B     (weight gradient)
	gemmABT                 // out = A·Bᵀ     (input gradient)
)

// gemmGflops times one GEMM kernel at the shape of a layer with m rows,
// k input and n output features, after checking its result against a plain
// triple loop. AB multiplies m×k by k×n; ATB multiplies (m×k)ᵀ by m×n (the
// weight gradient); ABT multiplies m×n by (k×n)ᵀ (the input gradient). All
// three do 2·m·k·n flops. The figure is the median of repeated calls.
func gemmGflops(kind gemmKind, m, k, n int, seed int64) (float64, error) {
	rng := rand.New(rand.NewSource(seed))
	fill := func(r, c int) *tensor.Matrix {
		x := tensor.New(r, c)
		for i := range x.Data {
			x.Data[i] = rng.Float32()*2 - 1
		}
		return x
	}
	var a, b, out *tensor.Matrix
	var call func()
	switch kind {
	case gemmAB:
		a, b, out = fill(m, k), fill(k, n), tensor.New(m, n)
		call = func() { tensor.MatMulInto(out, a, b, false) }
	case gemmATB:
		a, b, out = fill(m, k), fill(m, n), tensor.New(k, n)
		call = func() { tensor.MatMulATBInto(out, a, b, false) }
	case gemmABT:
		a, b, out = fill(m, n), fill(k, n), tensor.New(m, k)
		call = func() { tensor.MatMulABTInto(out, a, b, false) }
	}
	call()
	if err := checkGEMM(kind, a, b, out); err != nil {
		return 0, err
	}
	var secs []float64
	start := time.Now()
	for len(secs) < 3 || (time.Since(start) < 300*time.Millisecond && len(secs) < 500) {
		t := time.Now()
		call()
		secs = append(secs, time.Since(t).Seconds())
	}
	return 2 * float64(m) * float64(k) * float64(n) / median(secs) / 1e9, nil
}

// checkGEMM compares out with a float64 triple loop over the same operands.
// Each element may differ by the standard float32 accumulation bound:
// reduction length × 2⁻²³ × Σ|a·b| over its products.
func checkGEMM(kind gemmKind, a, b, out *tensor.Matrix) error {
	var red int
	at := func(i, p int) float32 { return a.At(i, p) }
	bt := func(p, j int) float32 { return b.At(p, j) }
	switch kind {
	case gemmAB:
		red = a.Cols
	case gemmATB:
		red = a.Rows
		at = func(i, p int) float32 { return a.At(p, i) }
	case gemmABT:
		red = a.Cols
		bt = func(p, j int) float32 { return b.At(j, p) }
	}
	const u = 1.0 / (1 << 23)
	for i := 0; i < out.Rows; i++ {
		for j := 0; j < out.Cols; j++ {
			var ref, mag float64
			for p := 0; p < red; p++ {
				x := float64(at(i, p)) * float64(bt(p, j))
				ref += x
				if x < 0 {
					mag -= x
				} else {
					mag += x
				}
			}
			got := float64(out.At(i, j))
			if diff := got - ref; diff > float64(red)*u*mag+1e-30 || -diff > float64(red)*u*mag+1e-30 {
				return fmt.Errorf("gemm kind %d %dx%d: element (%d,%d) = %g, triple loop %g", kind, out.Rows, out.Cols, i, j, got, ref)
			}
		}
	}
	return nil
}
