package main

import (
	"context"
	"runtime"
	"time"

	"congestmst"
)

// batchSpec is one batch workload: one random connected graph with
// distinct weights, solved again and again by one algorithm on one
// engine. Each job is what mstrun -updates does: RunContext with full
// verification, then one incremental update batch (inserts plus
// deletes of non-tree edges) repaired from the job's MST.
type batchSpec struct {
	alg              congestmst.Algorithm
	engine           congestmst.Engine
	n, m             int
	shards           int // Cluster engine only
	inserts, deletes int
}

// batchShape fixes the instance every batch workload relabels.
const batchShape = 1

// poolSize is the engine worker pool: never more than the CPUs.
func poolSize() int { return min(runtime.GOMAXPROCS(0), runtime.NumCPU()) }

// jobSample is what one batch job measured.
type jobSample struct {
	runS, patchS  float64
	allocs, bytes uint64
	rounds, msgs  int64
	traced        bool
	layer         map[string]float64 // traced jobs only
}

func runBatch(ctx context.Context, cfg runConfig, spec batchSpec) (*result, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	res := &result{metrics: map[string]float64{}, trace: tr}

	// Set-up is graph generation, repeated; setup_s is the median.
	var inst instance
	var gens []float64
	for range setupReps {
		t0 := time.Now()
		var err error
		inst, err = newInstance(spec.n, spec.m, batchShape, cfg.seed)
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		tr.add(0, 0, "graph.generate", t0, t1)
		gens = append(gens, t1.Sub(t0).Seconds())
	}
	g := inst.g

	// Expected answers, outside every timed region.
	want := msfWeight(g.N(), g.Edges())
	plan := inst.plan(1, spec.inserts, spec.deletes, false)

	// The library's own Kruskal, timed for graph.kruskal_s and checked
	// like any other answer.
	t0 := time.Now()
	kr, err := g.Kruskal()
	t1 := time.Now()
	tr.add(0, 0, "graph.Kruskal", t0, t1)
	kruskalS := t1.Sub(t0).Seconds()
	res.attempted++
	if err != nil || g.TotalWeight(kr) != want {
		res.failed++
	}
	runtime.GC()

	opts := congestmst.Options{
		Algorithm: spec.alg,
		Engine:    spec.engine,
		Workers:   poolSize(),
		Shards:    spec.shards,
		Verify:    congestmst.VerifyFull,
	}
	var jobs []jobSample
	firstRounds, firstMsgs := int64(-1), int64(-1)
	start := time.Now()
	deadline := start.Add(cfg.measure)
	// A traced run alternates untraced and traced jobs, so the tracing
	// overhead is measured on the same graph in the same process.
	for i := 0; ctx.Err() == nil && (i < 1 || (cfg.trace && i < 2) || time.Now().Before(deadline)); i++ {
		s, runOK, patchOK := batchJob(ctx, g, opts, plan, want, cfg.trace && i%2 == 1, tr, int64(i+1))
		if runOK && firstRounds < 0 {
			firstRounds, firstMsgs = s.rounds, s.msgs
		}
		// The exact counts must repeat bit for bit.
		runOK = runOK && s.rounds == firstRounds && s.msgs == firstMsgs
		res.attempted += 2 // the run and the update batch
		for _, ok := range []bool{runOK, patchOK} {
			if !ok {
				res.failed++
			}
		}
		jobs = append(jobs, s)
	}
	elapsed := time.Since(start).Seconds()

	var runs, patches, allocs, mbs, traced, untraced []float64
	for _, s := range jobs {
		runs = append(runs, s.runS)
		patches = append(patches, s.patchS)
		allocs = append(allocs, float64(s.allocs))
		mbs = append(mbs, float64(s.bytes)/(1<<20))
		if s.traced {
			traced = append(traced, s.runS)
		} else {
			untraced = append(untraced, s.runS)
		}
	}
	m := res.metrics
	m["setup_s"] = median(gens)
	m["wall_s"] = median(runs)
	// Means, not medians: pooled buffers that do or do not survive a
	// collection can make a job's allocation volume bimodal, and a median
	// would flip between the modes from run to run.
	m["allocs_per_job"] = mean(allocs)
	m["alloc_mb_per_job"] = mean(mbs)
	m["peak_rss_mb"] = peakRSSMB()
	m["rounds"] = float64(firstRounds)
	m["messages"] = float64(firstMsgs)
	m["ok_frac"] = float64(res.attempted-res.failed) / float64(res.attempted)
	m["latency_p50_ms"] = 1000 * median(runs)
	m["latency_p99_ms"] = 1000 * percentile(runs, 0.99)
	m["jobs_per_s"] = float64(len(jobs)) / elapsed
	m["patch_p50_ms"] = 1000 * median(patches)

	if cfg.trace {
		layers := map[string][]float64{}
		for _, s := range jobs {
			if !s.traced {
				continue
			}
			for k, v := range s.layer {
				layers[k] = append(layers[k], v)
			}
		}
		for k, vs := range layers {
			m[k] = median(vs)
		}
		m["graph.gen_s"] = median(gens)
		m["graph.kruskal_s"] = kruskalS
		m["obs.trace_overhead_frac"] = median(traced)/median(untraced) - 1
	}
	return res, nil
}

// batchJob runs one job and its update batch, checks both answers, and
// on a traced job records the spans and per-layer readings. An update
// batch whose run failed counts as failed too.
func batchJob(ctx context.Context, g *congestmst.Graph, opts congestmst.Options, plan patchPlan,
	want int64, traced bool, tr *tracer, id int64) (s jobSample, runOK, patchOK bool) {
	s = jobSample{rounds: -1, msgs: -1, traced: traced}
	var p *probe
	if traced {
		p = &probe{}
		opts.Observer = p
	}
	// The run and the update batch each start from a collected heap, so
	// one's garbage does not land in the other's GC cycles.
	runtime.GC()
	gc0 := readGC()
	a0, b0 := allocCount()
	t0 := time.Now()
	r, err := congestmst.RunContext(ctx, g, opts)
	t1 := time.Now()
	// The job's allocation and GC figures end with the call: the forced
	// collection and the update batch below are not the run's.
	gc1 := readGC()
	a1, b1 := allocCount()
	s.runS = t1.Sub(t0).Seconds()
	s.allocs, s.bytes = a1-a0, b1-b0
	if err != nil {
		return s, false, false
	}
	runOK = r.Weight == want
	s.rounds, s.msgs = r.Rounds, r.Messages

	runtime.GC()
	t2 := time.Now()
	var st congestmst.UpdateStats
	sess, err := congestmst.NewDynamicSession(g, r.MSTEdges)
	if err == nil {
		var delta congestmst.UpdateDelta
		delta, st, err = sess.Apply(plan.ops)
		if err == nil {
			_, _, err = sess.Materialize()
		}
		patchOK = err == nil && delta.Weight == plan.weight
	}
	t3 := time.Now()
	s.patchS = t3.Sub(t2).Seconds()
	if !traced {
		return s, runOK, patchOK
	}

	gc := gc1.sub(gc0)
	job := tr.add(0, id, "job", t0, t3)
	call := tr.add(job, id, "congestmst.RunContext", t0, t1)
	tr.add(job, id, "dynamic.Session", t2, t3)
	tr.add(call, id, "engine.setup", t0, p.first)
	rounds := tr.add(call, id, "engine.rounds", p.first, p.last)
	tr.add(call, id, "verify", p.last, t1)

	L := map[string]float64{
		"program.allocs_per_msg": float64(a1-a0) / float64(max(1, r.Messages)),
		"gc.cycles":              gc.cycles,
		"gc.cpu_s":               gc.cpuS,
		"gc.pause_s":             gc.pauseS,
		"verify.s":               t1.Sub(p.last).Seconds(),
		"dynamic.patch_ops":      float64(st.Ops),
		"dynamic.path_arcs":      float64(st.PathArcs),
		"dynamic.cut_arcs":       float64(st.CutArcs),
	}
	for _, st := range p.elkinStages(r.Rounds, r.Messages) {
		tr.add(rounds, id, "core."+st.name, st.start, st.end)
		L["core."+st.name+"_s"] = st.end.Sub(st.start).Seconds()
		L["core."+st.name+"_rounds"] = float64(st.rounds)
		L["core."+st.name+"_messages"] = float64(st.messages)
	}
	var busy, maxBusy, execs float64
	for _, sh := range p.shards {
		b := float64(sh.BusyNanos) / 1e9
		busy += b
		maxBusy = max(maxBusy, b)
		execs += float64(sh.Execs)
	}
	roundS := float64(p.roundNanos) / 1e9
	switch opts.Engine {
	case congestmst.Fiber:
		L["parsim.setup_s"] = p.first.Sub(t0).Seconds()
		L["parsim.round_s"] = roundS
		L["parsim.busy_s"] = busy
		L["parsim.barrier_wait_s"] = float64(opts.Workers)*roundS - busy
		if len(p.shards) > 0 && busy > 0 {
			L["parsim.shard_skew"] = maxBusy / (busy / float64(len(p.shards)))
		}
		L["parsim.execs"] = execs
		L["parsim.execs_per_msg"] = execs / float64(max(1, r.Messages))
		// Rounds is the last round index, so Rounds+1 rounds could play.
		L["parsim.played_round_frac"] = float64(p.played) / float64(r.Rounds+1)
	case congestmst.Cluster:
		L["nettrans.round_s"] = roundS
		L["nettrans.busy_s"] = busy
		L["nettrans.sync_wait_s"] = float64(len(p.shards))*roundS - busy
		if n := p.net; n != nil {
			L["nettrans.bytes_out"] = float64(n.BytesOut)
			L["nettrans.frames_out"] = float64(n.FramesOut)
			L["nettrans.bytes_per_msg"] = float64(n.BytesOut) / float64(max(1, r.Messages))
			var rtt []float64
			for _, x := range n.RTTs {
				rtt = append(rtt, float64(x.Nanos)/1e3)
			}
			L["nettrans.rtt_us"] = mean(rtt)
			L["nettrans.reconnects"] = float64(n.Reconnects)
			L["nettrans.replayed_frames"] = float64(n.ReplayedFrames)
		}
	}
	s.layer = L
	return s, runOK, patchOK
}
