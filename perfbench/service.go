package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"congestmst"
	"congestmst/internal/service"
)

// serviceSpec is the service workload: small random graphs uploaded to
// an in-process mstserved server, then a closed loop of clients over
// loopback HTTP running a read/write/miss mix against them.
type serviceSpec struct {
	sizes            []int // n of each uploaded graph; m = 3n
	variants         int   // patch variants per graph: even heavy, odd light
	inserts, deletes int   // ops per patch
	// reads, writes and misses are the operation counts in every block
	// of the mix; a client runs each block in a seeded order, so the
	// proportions, and which graphs miss, do not drift with the seed.
	reads, writes, misses int
}

// serviceShape is the first of the fixed instances the service
// workload relabels, one per graph.
const serviceShape = 100

// svcGraph is one uploaded graph and everything the harness expects of
// it.
type svcGraph struct {
	digest string
	want   int64
	plans  []patchPlan
}

// svcServer is one running server and a client pool for it.
type svcServer struct {
	svc    *service.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

func startServer() (*svcServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	svc := service.New(service.Config{Workers: poolSize(), CacheSize: 1024, MaxGraphs: 1024})
	s := &svcServer{
		svc:    svc,
		hs:     &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: poolSize() + 1}},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for Serve to return, then drains the
// job pool.
func (s *svcServer) close() {
	s.hs.Close()
	<-s.served
	s.svc.Close()
	s.client.CloseIdleConnections()
}

// call sends one request and decodes a JSON reply into out; it returns
// the HTTP status.
func (s *svcServer) call(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse
		return resp.StatusCode, fmt.Errorf("%s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return resp.StatusCode, nil
}

func uploadBody(g *congestmst.Graph) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\"n\":%d}\n", g.N())
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "{\"u\":%d,\"v\":%d,\"w\":%d}\n", e.U, e.V, e.W)
	}
	return b.Bytes()
}

// patchReply is the part of the PATCH /graphs/{digest} reply the
// harness reads.
type patchReply struct {
	Graph  string `json:"graph"`
	Weight int64  `json:"weight"`
	Stats  struct {
		Ops      int64 `json:"ops"`
		PathArcs int64 `json:"path_arcs"`
		CutArcs  int64 `json:"cut_arcs"`
	} `json:"stats"`
	CacheTransferred int `json:"cache_transferred"`
}

// jobOutcome is one job submission as the client saw it.
type jobOutcome struct {
	latency, submit float64 // seconds: submit to done, and the POST alone
	view            service.JobView
	rejected        bool
	err             error
}

// runJob submits a job and polls it to a terminal state. On a traced
// operation every HTTP exchange becomes a span under parent.
func (s *svcServer) runJob(ctx context.Context, req service.JobRequest, tr *tracer, parent, op int64) jobOutcome {
	var o jobOutcome
	body, _ := json.Marshal(req)
	t0 := time.Now()
	code, err := s.call(ctx, http.MethodPost, "/jobs", body, &o.view)
	t1 := time.Now()
	tr.add(parent, op, "http.POST /jobs", t0, t1)
	o.submit = t1.Sub(t0).Seconds()
	if err != nil {
		o.rejected = code == http.StatusServiceUnavailable
		o.err = err
		return o
	}
	wait := 100 * time.Microsecond
	for o.view.Status == service.StatusQueued || o.view.Status == service.StatusRunning {
		select {
		case <-ctx.Done():
			o.err = ctx.Err()
			return o
		case <-time.After(wait):
		}
		wait = min(2*wait, 2*time.Millisecond)
		p0 := time.Now()
		_, err := s.call(ctx, http.MethodGet, "/jobs/"+o.view.ID, nil, &o.view)
		tr.add(parent, op, "http.GET /jobs/{id}", p0, time.Now())
		if err != nil {
			o.err = err
			return o
		}
	}
	o.latency = time.Since(t0).Seconds()
	if o.view.Status != service.StatusDone || o.view.Result == nil {
		o.err = fmt.Errorf("job %s ended %s: %s", o.view.ID, o.view.Status, o.view.Error)
	}
	return o
}

// svcOp is one closed-loop operation: a job, or a patch followed by a
// job on the patched graph.
type svcOp struct {
	kind    int     // opRead, opWrite or opMiss
	clientS float64 // the whole operation as the client saw it
	traced  bool
	job     jobOutcome
	jobOK   bool
	patched bool
	patchS  float64
	patchOK bool
	patch   patchReply
}

// statsBook holds the first rounds/messages seen per digest, so every
// later job on it must repeat them exactly.
type statsBook struct {
	mu   sync.Mutex
	seen map[string][2]int64
}

func (b *statsBook) same(digest string, r *service.JobResult) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	got := [2]int64{r.Rounds, r.Messages}
	if prev, ok := b.seen[digest]; ok {
		return prev == got
	}
	b.seen[digest] = got
	return true
}

func runService(ctx context.Context, cfg runConfig, spec serviceSpec) (*result, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	res := &result{metrics: map[string]float64{}, trace: tr}
	// Set-up is server start, graph generation and uploads, repeated on
	// fresh servers; setup_s is the median. The last server stays up.
	var srv *svcServer
	var insts []instance
	var digests []string
	var setups, uploads, gens []float64
	for range setupReps {
		if srv != nil {
			srv.close()
		}
		t0 := time.Now()
		var err error
		if srv, err = startServer(); err != nil {
			return nil, err
		}
		insts, digests = insts[:0], digests[:0]
		var gen float64
		for i, n := range spec.sizes {
			g0 := time.Now()
			inst, err := newInstance(n, 3*n, serviceShape+uint64(i), cfg.seed)
			g1 := time.Now()
			if err != nil {
				srv.close()
				return nil, err
			}
			tr.add(0, 0, "graph.generate", g0, g1)
			gen += g1.Sub(g0).Seconds()
			var info struct {
				Graph string `json:"graph"`
			}
			u0 := time.Now()
			_, err = srv.call(ctx, http.MethodPost, "/graphs", uploadBody(inst.g), &info)
			u1 := time.Now()
			if err != nil {
				srv.close()
				return nil, fmt.Errorf("upload: %w", err)
			}
			tr.add(0, 0, "http.POST /graphs", u0, u1)
			uploads = append(uploads, u1.Sub(u0).Seconds())
			insts = append(insts, inst)
			digests = append(digests, info.Graph)
		}
		setups = append(setups, time.Since(t0).Seconds())
		gens = append(gens, gen)
	}
	defer srv.close()

	// Expected answers, outside every timed region.
	book := &statsBook{seen: map[string][2]int64{}}
	sg := make([]svcGraph, len(insts))
	var kruskalS float64
	for i, inst := range insts {
		g := inst.g
		sg[i] = svcGraph{digest: digests[i], want: msfWeight(g.N(), g.Edges())}
		for v := range spec.variants {
			sg[i].plans = append(sg[i].plans, inst.plan(uint64(v), spec.inserts, spec.deletes, v%2 == 0))
		}
		t0 := time.Now()
		kr, err := g.Kruskal()
		kruskalS += time.Since(t0).Seconds()
		res.attempted++
		if err != nil || g.TotalWeight(kr) != sg[i].want {
			res.failed++
		}
	}

	// Prime: one uncached job per graph, spread over the clients, fills
	// the result cache and gives each graph's reference rounds/messages.
	prime := make([]jobOutcome, len(sg))
	var pwg sync.WaitGroup
	for c := range poolSize() {
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			for i := c; i < len(sg); i += poolSize() {
				prime[i] = srv.runJob(ctx, service.JobRequest{Graph: sg[i].digest}, nil, 0, 0)
			}
		}()
	}
	pwg.Wait()
	var rounds, messages float64
	for i, o := range prime {
		res.attempted++
		if !checkJob(o, sg[i].digest, sg[i].want, book) {
			res.failed++
			continue
		}
		rounds += float64(o.view.Result.Rounds)
		messages += float64(o.view.Result.Messages)
	}

	// The closed loop: each client sends its next operation when the
	// previous one completes.
	clients := poolSize()
	var seq atomic.Int64
	ops := make([][]svcOp, clients)
	gc0 := readGC()
	a0, b0 := allocCount()
	start := time.Now()
	deadline := start.Add(cfg.measure)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := newRNG(cfg.seed, 100+uint64(c))
			// Misses walk the graphs, and writes the (graph, variant)
			// pairs, in seeded orders: every size gets its share.
			missOrder, writeOrder := rng.Perm(len(sg)), rng.Perm(len(sg)*spec.variants)
			var block []int
			var nMiss, nWrite int
			for len(ops[c]) == 0 || (time.Now().Before(deadline) && ctx.Err() == nil) {
				if len(block) == 0 {
					block = mixBlock(rng, spec)
				}
				kind := block[0]
				block = block[1:]
				id := seq.Add(1)
				traced := cfg.trace && id%2 == 1
				var op svcOp
				o0 := time.Now()
				switch kind {
				case opRead:
					op = serviceRead(ctx, srv, &sg[rng.IntN(len(sg))], book, traced, tr, id, false)
				case opWrite:
					pair := writeOrder[nWrite%len(writeOrder)]
					nWrite++
					op = serviceWrite(ctx, srv, &sg[pair/spec.variants], pair%spec.variants, book, traced, tr, id)
				case opMiss:
					g := missOrder[nMiss%len(missOrder)]
					nMiss++
					op = serviceRead(ctx, srv, &sg[g], book, traced, tr, id, true)
				}
				op.kind, op.clientS = kind, time.Since(o0).Seconds()
				ops[c] = append(ops[c], op)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	a1, b1 := allocCount()
	gc := readGC().sub(gc0)

	var lat, tracedLat, untracedLat, submits, runMS, queueMS, patchS []float64
	var patchOps, pathArcs, cutArcs []float64
	var jobs, cached, rejected, patches, transferred int
	var nOps int
	var kindOps, kindS [3]float64
	for _, cops := range ops {
		for _, op := range cops {
			nOps++
			kindOps[op.kind]++
			kindS[op.kind] += op.clientS
			res.attempted++
			if !op.jobOK {
				res.failed++
			}
			if op.patched {
				res.attempted++
				patches++
				if !op.patchOK {
					res.failed++
				}
				patchS = append(patchS, op.patchS)
				patchOps = append(patchOps, float64(op.patch.Stats.Ops))
				pathArcs = append(pathArcs, float64(op.patch.Stats.PathArcs))
				cutArcs = append(cutArcs, float64(op.patch.Stats.CutArcs))
				if op.patch.CacheTransferred > 0 {
					transferred++
				}
			}
			if op.job.rejected {
				rejected++
			}
			if op.job.err != nil {
				continue
			}
			jobs++
			submits = append(submits, op.job.submit)
			lat = append(lat, op.job.latency)
			if op.traced {
				tracedLat = append(tracedLat, op.job.latency)
			} else {
				untracedLat = append(untracedLat, op.job.latency)
			}
			if op.job.view.Cached {
				cached++
			} else {
				ms := op.job.view.Result.ElapsedMillis
				runMS = append(runMS, ms)
				queueMS = append(queueMS, 1000*op.job.latency-ms)
			}
		}
	}

	// The mix is chosen, not taken from recorded traffic; these shares
	// say what it amounts to, so a change can be traced to the metric it
	// moves: cache hits set latency_p50_ms, engine runs set wall_s,
	// latency_p99_ms and most of the client time behind jobs_per_s.
	totalS := kindS[opRead] + kindS[opWrite] + kindS[opMiss]
	res.shares = map[string]float64{
		"ops.read":          kindOps[opRead] / float64(max(1, nOps)),
		"ops.write":         kindOps[opWrite] / float64(max(1, nOps)),
		"ops.miss":          kindOps[opMiss] / float64(max(1, nOps)),
		"jobs.cache_hit":    float64(cached) / float64(max(1, jobs)),
		"jobs.engine_run":   float64(len(runMS)) / float64(max(1, jobs)),
		"client_time.read":  kindS[opRead] / max(totalS, 1e-12),
		"client_time.write": kindS[opWrite] / max(totalS, 1e-12),
		"client_time.miss":  kindS[opMiss] / max(totalS, 1e-12),
	}

	m := res.metrics
	perJob := float64(max(1, jobs))
	m["setup_s"] = median(setups)
	// The engine runs are on graphs of many sizes: their mean, unlike
	// their median, does not hinge on the one or two mid-sized instances.
	m["wall_s"] = mean(runMS) / 1000
	m["allocs_per_job"] = float64(a1-a0) / perJob
	m["alloc_mb_per_job"] = float64(b1-b0) / (1 << 20) / perJob
	m["peak_rss_mb"] = peakRSSMB()
	m["rounds"] = rounds
	m["messages"] = messages
	m["ok_frac"] = float64(res.attempted-res.failed) / float64(res.attempted)
	m["latency_p50_ms"] = 1000 * median(lat)
	m["latency_p99_ms"] = 1000 * percentile(lat, 0.99)
	m["jobs_per_s"] = float64(jobs) / elapsed
	m["patch_p50_ms"] = 1000 * median(patchS)
	if cfg.trace {
		m["gc.cycles"] = gc.cycles / perJob
		m["gc.cpu_s"] = gc.cpuS / perJob
		m["gc.pause_s"] = gc.pauseS / perJob
		m["graph.gen_s"] = median(gens)
		m["graph.kruskal_s"] = kruskalS
		m["service.upload_ms"] = 1000 * median(uploads)
		m["service.submit_ms"] = 1000 * median(submits)
		m["service.cache_hit_ratio"] = float64(cached) / perJob
		m["service.queue_wait_ms"] = median(queueMS)
		m["service.run_ms"] = median(runMS)
		m["service.rejected"] = float64(rejected)
		m["dynamic.patch_ops"] = mean(patchOps)
		m["dynamic.path_arcs"] = mean(pathArcs)
		m["dynamic.cut_arcs"] = mean(cutArcs)
		m["dynamic.cache_transferred_ratio"] = float64(transferred) / float64(max(1, patches))
		m["obs.trace_overhead_frac"] = median(tracedLat)/median(untracedLat) - 1
	}
	return res, nil
}

// Operation kinds of the service mix.
const (
	opRead = iota
	opWrite
	opMiss
)

// mixBlock returns one block of the mix in a seeded order.
func mixBlock(rng *rand.Rand, spec serviceSpec) []int {
	var b []int
	for kind, count := range []int{spec.reads, spec.writes, spec.misses} {
		for range count {
			b = append(b, kind)
		}
	}
	rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

// serviceRead submits a job on a base graph: a cache hit after the
// prime, or with miss set a no_cache run on the default engine.
func serviceRead(ctx context.Context, srv *svcServer, g *svcGraph, book *statsBook,
	traced bool, tr *tracer, id int64, miss bool) svcOp {
	op := svcOp{traced: traced}
	if !traced {
		tr = nil
	}
	parent := tr.add(0, id, "client.job", time.Now(), time.Now())
	op.job = srv.runJob(ctx, service.JobRequest{Graph: g.digest, NoCache: miss}, tr, parent, id)
	tr.finish(parent, time.Now())
	op.jobOK = checkJob(op.job, g.digest, g.want, book)
	return op
}

// serviceWrite patches a base graph with one of its planned op batches
// and then submits a job on the patched digest.
func serviceWrite(ctx context.Context, srv *svcServer, g *svcGraph, variant int, book *statsBook,
	traced bool, tr *tracer, id int64) svcOp {
	op := svcOp{traced: traced, patched: true}
	if !traced {
		tr = nil
	}
	plan := g.plans[variant]
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, e := range plan.ops {
		enc.Encode(e) //nolint:errcheck // bytes.Buffer writes do not fail
	}
	t0 := time.Now()
	parent := tr.add(0, id, "client.patch+job", t0, t0)
	_, err := srv.call(ctx, http.MethodPatch, "/graphs/"+g.digest, body.Bytes(), &op.patch)
	t1 := time.Now()
	tr.add(parent, id, "http.PATCH /graphs/{digest}", t0, t1)
	op.patchS = t1.Sub(t0).Seconds()
	op.patchOK = err == nil && op.patch.Weight == plan.weight
	if err != nil {
		op.job.err = errors.New("patch failed; job not submitted")
		tr.finish(parent, time.Now())
		return op
	}
	op.job = srv.runJob(ctx, service.JobRequest{Graph: op.patch.Graph}, tr, parent, id)
	tr.finish(parent, time.Now())
	op.jobOK = checkJob(op.job, op.patch.Graph, plan.weight, book)
	return op
}

// checkJob accepts a finished job whose weight is the harness's own and
// whose rounds/messages repeat those first seen for the digest.
func checkJob(o jobOutcome, digest string, want int64, book *statsBook) bool {
	return o.err == nil && o.view.Result.Weight == want && book.same(digest, o.view.Result)
}
