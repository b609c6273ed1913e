package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"

	"congestmst"
	"congestmst/internal/service"
)

// benchmarkSpec is the part of BENCHMARK.json the harness must agree
// with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestTinyRunsEmitEveryMetric runs every workload at test scale, untraced
// and traced, and checks the last output line: a correct run reporting
// exactly the metrics BENCHMARK.json lists, each with its unit.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Fatalf("BENCHMARK.json workloads %s, harness %s", got, want)
	}
	for _, w := range workloadNames() {
		for trace, defs := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w, "--seed", "7", "--seconds", "0.2", "--trace", []string{"0", "1"}[trace]}
			if code := run(args, &stdout, &stderr, true); code != 0 {
				t.Fatalf("%s trace %d: exit %d: %s", w, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var rep finalReport
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				t.Fatalf("%s trace %d: last line: %v", w, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", w, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json lists %d", w, trace, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace %d: metric %s = %+v, want unit %s", w, trace, d.Name, m, d.Unit)
				}
			}
			if !strings.HasPrefix(lines[0], "host {") {
				t.Errorf("%s trace %d: first line %q is not the host fingerprint", w, trace, lines[0])
			}
			if w == "service-mixed" {
				checkShares(t, trace, lines)
			}
		}
	}
}

// checkShares checks the service run's traffic account: operations by
// kind, jobs by how they were answered, and client time by kind each
// add up to the whole.
func checkShares(t *testing.T, trace int, lines []string) {
	t.Helper()
	sums := map[string]float64{}
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) != 3 || f[0] != "share" {
			continue
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			t.Fatalf("trace %d: %q: %v", trace, l, err)
		}
		sums[strings.Split(f[1], ".")[0]] += v
	}
	for _, group := range []string{"ops", "jobs", "client_time"} {
		if s := sums[group]; s < 0.999 || s > 1.001 {
			t.Errorf("trace %d: %s shares add up to %g, want 1", trace, group, s)
		}
	}
}

// TestMetricTablesMatchSpec keeps the harness's metric tables and
// BENCHMARK.json in step.
func TestMetricTablesMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	for _, c := range []struct {
		table []metricDef
		spec  []specMetric
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		if len(c.table) != len(c.spec) {
			t.Fatalf("harness has %d metrics, BENCHMARK.json %d", len(c.table), len(c.spec))
		}
		for i, d := range c.table {
			if d.name != c.spec[i].Name || d.unit != c.spec[i].Unit {
				t.Errorf("metric %d: harness %s [%s], BENCHMARK.json %s [%s]", i, d.name, d.unit, c.spec[i].Name, c.spec[i].Unit)
			}
		}
	}
}

// TestCorruptExpectedWeightFails checks that the answer checks fail
// closed: an expected weight off by one makes the run, the update batch
// and a service job count as failures rather than passes.
func TestCorruptExpectedWeightFails(t *testing.T) {
	inst, err := newInstance(128, 384, batchShape, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := inst.g
	want := msfWeight(g.N(), g.Edges())
	plan := inst.plan(1, 4, 4, false)
	opts := congestmst.Options{Engine: congestmst.Fiber, Workers: 1, Verify: congestmst.VerifyFull}
	ctx := context.Background()

	if _, runOK, patchOK := batchJob(ctx, g, opts, plan, want, false, nil, 1); !runOK || !patchOK {
		t.Fatalf("true expectations: runOK=%v patchOK=%v", runOK, patchOK)
	}
	if _, runOK, _ := batchJob(ctx, g, opts, plan, want+1, false, nil, 1); runOK {
		t.Error("run checked against a corrupted weight passed")
	}
	bad := plan
	bad.weight++
	if _, _, patchOK := batchJob(ctx, g, opts, bad, want, false, nil, 1); patchOK {
		t.Error("update batch checked against a corrupted weight passed")
	}

	srv, err := startServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	var info struct {
		Graph string `json:"graph"`
	}
	if _, err := srv.call(ctx, "POST", "/graphs", uploadBody(g), &info); err != nil {
		t.Fatal(err)
	}
	o := srv.runJob(ctx, service.JobRequest{Graph: info.Graph}, nil, 0, 0)
	book := &statsBook{seen: map[string][2]int64{}}
	if !checkJob(o, info.Graph, want, book) {
		t.Fatalf("service job with the true weight failed: %v", o.err)
	}
	if checkJob(o, info.Graph, want+1, book) {
		t.Error("service job checked against a corrupted weight passed")
	}
	changed := *o.view.Result
	changed.Rounds++
	o.view.Result = &changed
	if checkJob(o, info.Graph, want, book) {
		t.Error("service job whose rounds did not repeat passed")
	}
}

// TestHarnessKruskal pins the harness's own MST weight on a graph with a
// known answer and against the library on a random one.
func TestHarnessKruskal(t *testing.T) {
	// A 4-cycle with a chord: MST {0-1:1, 1-2:2, 2-3:3}.
	edges := []congestmst.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 3, W: 3}, {U: 3, V: 0, W: 4}, {U: 0, V: 2, W: 5}}
	if w := msfWeight(4, edges); w != 6 {
		t.Errorf("4-cycle MST weight %d, want 6", w)
	}
	g, err := congestmst.RandomConnected(500, 2000, congestmst.GenOptions{Seed: 5, Weights: congestmst.WeightsRandom})
	if err != nil {
		t.Fatal(err)
	}
	kr, err := g.Kruskal()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := msfWeight(g.N(), g.Edges()), g.TotalWeight(kr); got != want {
		t.Errorf("harness Kruskal %d, library %d", got, want)
	}
}

// TestRelabelKeepsShape checks that a relabelled instance is the fixed
// shape under a seed-dependent labelling: same weight, different edge
// list.
func TestRelabelKeepsShape(t *testing.T) {
	a, err := newInstance(300, 900, batchShape, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newInstance(300, 900, batchShape, 2)
	if err != nil {
		t.Fatal(err)
	}
	wa, wb := msfWeight(300, a.g.Edges()), msfWeight(300, b.g.Edges())
	if wa != wb || wa != msfWeight(300, a.base.Edges()) {
		t.Errorf("MST weights %d, %d differ", wa, wb)
	}
	if a.g.Edge(0) == b.g.Edge(0) && a.g.Edge(1) == b.g.Edge(1) {
		t.Error("seeds 1 and 2 produced the same labelling")
	}
}
