package main

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"

	"congestmst"
)

// inMSF is the harness's own Kruskal: it sorts the edges by the
// repository's (w, u, v) order and joins components with its own
// union-find, so a defect shared by the library's graph package and its
// engines cannot pass as a self-consistent answer. It marks the edges of
// the minimum spanning forest.
func inMSF(n int, edges []congestmst.Edge) []bool {
	order := make([]int, len(edges))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int {
		a, b := edges[i], edges[j]
		if c := cmp.Compare(a.W, b.W); c != 0 {
			return c
		}
		if c := cmp.Compare(min(a.U, a.V), min(b.U, b.V)); c != 0 {
			return c
		}
		return cmp.Compare(max(a.U, a.V), max(b.U, b.V))
	})
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	tree := make([]bool, len(edges))
	for _, i := range order {
		a, b := find(int32(edges[i].U)), find(int32(edges[i].V))
		if a != b {
			parent[a] = b
			tree[i] = true
		}
	}
	return tree
}

// msfWeight is the weight of the minimum spanning forest by inMSF.
func msfWeight(n int, edges []congestmst.Edge) int64 {
	var total int64
	for i, in := range inMSF(n, edges) {
		if in {
			total += edges[i].W
		}
	}
	return total
}

// instance is one workload input: a random connected graph with
// distinct weights whose shape is fixed by a constant, presented to the
// library under a vertex labelling and edge order drawn from the run
// seed. Costs differ a lot between random instances of one size — GHS
// took 850 to 1300 rounds over 16 seeds at n = 32768 — far more than a
// regression bound tolerates; on one relabelled shape rounds, messages
// and repair work stay put while memory layout, port numbering and the
// shard partition still follow the seed.
type instance struct {
	base  *congestmst.Graph // the fixed shape
	g     *congestmst.Graph // what the library receives
	perm  []int             // base vertex -> g vertex
	shape uint64
}

// newInstance generates the shape with the library's generator and
// relabels it through the library's Builder.
func newInstance(n, m int, shape, seed uint64) (instance, error) {
	base, err := congestmst.RandomConnected(n, m, congestmst.GenOptions{Seed: shape})
	if err != nil {
		return instance{}, fmt.Errorf("generate: %w", err)
	}
	rng := newRNG(seed, shape)
	perm := rng.Perm(n)
	edges := base.Edges()
	b := congestmst.NewBuilder(n)
	for _, i := range rng.Perm(len(edges)) {
		e := edges[i]
		b.AddEdge(perm[e.U], perm[e.V], e.W)
	}
	g, err := b.Graph()
	if err != nil {
		return instance{}, fmt.Errorf("relabel: %w", err)
	}
	return instance{base: base, g: g, perm: perm, shape: shape}, nil
}

// plan draws update batch number stream on the fixed shape, so its
// repair work does not change with the seed, and maps it into the
// relabelled graph.
func (in instance) plan(stream uint64, inserts, deletes int, heavy bool) patchPlan {
	p := planPatch(newRNG(in.shape, stream), in.base, inMSF(in.base.N(), in.base.Edges()), inserts, deletes, heavy)
	for i, op := range p.ops {
		p.ops[i].U, p.ops[i].V = in.perm[op.U], in.perm[op.V]
	}
	return p
}

// patchPlan is one edge-op batch for a graph plus the forest weight the
// harness expects after it.
type patchPlan struct {
	ops    []congestmst.EdgeOp
	weight int64
}

// planPatch draws a batch of inserts of absent edges and deletes of
// non-tree edges (so the graph stays connected and every later job on
// it succeeds). Heavy inserts weigh more than any existing edge, which
// leaves the tree unchanged; light ones may swap into it.
func planPatch(rng *rand.Rand, g *congestmst.Graph, tree []bool, inserts, deletes int, heavy bool) patchPlan {
	n, edges := g.N(), g.Edges()
	var maxW int64
	present := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		present[[2]int{min(e.U, e.V), max(e.U, e.V)}] = true
		maxW = max(maxW, e.W)
	}
	var ops []congestmst.EdgeOp
	removed := make(map[int]bool)
	for len(removed) < deletes {
		i := rng.IntN(len(edges))
		if tree[i] || removed[i] {
			continue
		}
		removed[i] = true
		ops = append(ops, congestmst.EdgeOp{Kind: congestmst.OpDelete, U: edges[i].U, V: edges[i].V})
	}
	var added []congestmst.Edge
	for len(added) < inserts {
		u, v := rng.IntN(n), rng.IntN(n)
		k := [2]int{min(u, v), max(u, v)}
		if u == v || present[k] {
			continue
		}
		present[k] = true
		w := 1 + rng.Int64N(maxW)
		if heavy {
			w += maxW
		}
		added = append(added, congestmst.Edge{U: u, V: v, W: w})
		ops = append(ops, congestmst.EdgeOp{Kind: congestmst.OpInsert, U: u, V: v, W: w})
	}
	live := make([]congestmst.Edge, 0, len(edges)+len(added))
	for i, e := range edges {
		if !removed[i] {
			live = append(live, e)
		}
	}
	live = append(live, added...)
	return patchPlan{ops: ops, weight: msfWeight(n, live)}
}

// newRNG derives an independent stream from the run seed and a stream
// label, so every input the harness generates is a function of --seed.
func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream^0x5851f42d4c957f2d))
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile is the nearest-rank q-quantile of xs (0 for none).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// allocCount reads the cumulative heap allocation count and bytes.
func allocCount() (objects, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// gcReading is the runtime's cumulative GC account.
type gcReading struct {
	cycles       float64
	cpuS, pauseS float64
}

var gcSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/sched/pauses/total/gc:seconds"},
}

// readGC samples runtime/metrics. Pause time is a histogram there; the
// sum takes each bucket at its midpoint (its finite edge for the open
// end buckets).
func readGC() gcReading {
	s := slices.Clone(gcSamples)
	metrics.Read(s)
	r := gcReading{}
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.cycles = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.cpuS = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[2].Value.Float64Histogram()
		for i, c := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			mid := (lo + hi) / 2
			switch {
			case math.IsInf(lo, -1):
				mid = hi
			case math.IsInf(hi, 1):
				mid = lo
			}
			r.pauseS += float64(c) * mid
		}
	}
	return r
}

func (r gcReading) sub(o gcReading) gcReading {
	return gcReading{cycles: r.cycles - o.cycles, cpuS: r.cpuS - o.cpuS, pauseS: r.pauseS - o.pauseS}
}
