package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"testing"
	"time"

	"spcg/internal/service"
)

func TestWarmSequenceRepeatsPerSeed(t *testing.T) {
	a, b, c := warmGen(7), warmGen(7), warmGen(8)
	differs := false
	for i := 0; i < 200; i++ {
		ra, rb, rc := a(i), b(i), c(i)
		if ra != rb {
			t.Fatalf("request %d: same seed gave %+v and %+v", i, ra, rb)
		}
		differs = differs || ra != rc
	}
	if !differs {
		t.Fatal("seeds 7 and 8 gave the same 200 serve-warm requests")
	}
}

func TestWarmSequenceCoversMixEachBlock(t *testing.T) {
	gen := warmGen(3)
	k := len(warmMatrices) * len(warmMethods)
	seen := map[service.SolveRequest]bool{}
	for i := 0; i < k; i++ {
		seen[gen(i)] = true
	}
	if len(seen) != k {
		t.Fatalf("first block holds %d distinct requests, want all %d pairs", len(seen), k)
	}
}

func TestColdMatricesNewPerRequestAndPerSeed(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		m := coldMatrix(1, i)
		if seen[m] {
			t.Fatalf("request %d repeats matrix %s", i, m)
		}
		seen[m] = true
		if m != coldMatrix(1, i) {
			t.Fatalf("request %d: same seed gave a different matrix", i)
		}
		if m == coldMatrix(2, i) {
			t.Fatalf("request %d: seeds 1 and 2 gave the same matrix %s", i, m)
		}
	}
	if seen[coldWarmup] {
		t.Fatal("the warm-up matrix appears in the measured sequence")
	}
}

// The reference solutions are only valid if the benchmark builds exactly
// the matrices spcgd builds for the same names.
func TestBuildMatrixMatchesService(t *testing.T) {
	srv := service.New(service.Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	h := srv.Handler()
	for _, name := range []string{"poisson2d:16", "hubgraph:4096", coldMatrix(5, 2), coldMatrix(5, 3)} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/affinity/"+name, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: /affinity answered %d: %s", name, rec.Code, rec.Body)
		}
		var doc struct {
			Fingerprint string `json:"fingerprint"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		a, err := buildMatrix(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := strconv.FormatUint(a.Fingerprint(), 10); got != doc.Fingerprint {
			t.Fatalf("%s: benchmark matrix fingerprint %s, service %s", name, got, doc.Fingerprint)
		}
	}
}

func TestSolveLargeIterationsRepeatPerSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the 48³ problem twice")
	}
	iters := func() map[string]int {
		p, err := setupLarge(4)
		if err != nil {
			t.Fatal(err)
		}
		if p.ref, err = referenceXNorm(p.a, p.b); err != nil {
			t.Fatal(err)
		}
		out := map[string]int{}
		for _, m := range []string{"pcg", "spcg", "capcg", "capcg3"} {
			o := p.solve(m, false)
			if o.err != nil {
				t.Fatal(o.err)
			}
			out[m] = o.iters
		}
		return out
	}
	first, second := iters(), iters()
	for m, it := range first {
		if second[m] != it {
			t.Errorf("%s: %d iterations, then %d on the same seed", m, it, second[m])
		}
	}
}

func TestAccountingCatchesSpansOutsideTheirParent(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(msec float64) time.Time { return t0.Add(time.Duration(msec * float64(time.Millisecond))) }
	status := func(sub, start, fin, solve float64) *service.JobStatus {
		s, f := at(start), at(fin)
		return &service.JobStatus{Submitted: at(sub), Started: &s, Finished: &f, Result: &service.SolveResult{SolveMS: solve}}
	}
	run := func(backendEnd float64) *report {
		tr := &tracer{epoch: t0}
		tr.add(span{Name: "backend", Op: "solve", Req: "t-1", Backend: "spcgd-0", StartNS: int64(1e6), EndNS: int64(backendEnd * 1e6)})
		rep := newReport()
		accountServed(rep, tr, []sample{{id: "t-1", start: at(0), end: at(10), st: status(2, 3, 8, 4)}}, false)
		return rep
	}
	if rep := run(9); len(rep.runErrors) != 0 || rep.layers["trace.layer_sum_gap_frac"] > 1e-9 {
		t.Fatalf("nested spans: gap %g, errors %v", rep.layers["trace.layer_sum_gap_frac"], rep.runErrors)
	}
	// A backend span ending 5 ms after the client saw the response cannot
	// be its child: the accounting must refuse it.
	if rep := run(15); len(rep.runErrors) == 0 {
		t.Fatalf("backend span past the client span passed the accounting (gap %g)", rep.layers["trace.layer_sum_gap_frac"])
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares, and the
// unit of each.
func benchmarkNames(t *testing.T, key string) ([]string, map[string]string) {
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	var metrics []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	if err := json.Unmarshal(doc[key], &metrics); err != nil {
		t.Fatal(err)
	}
	var out []string
	units := map[string]string{}
	for _, m := range metrics {
		out = append(out, m.Name)
		units[m.Name] = m.Unit
	}
	sort.Strings(out)
	return out, units
}

func metricNames(res result) []string {
	var out []string
	for k := range res.Metrics {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sameMetrics checks that a result carries exactly the metrics
// BENCHMARK.json declares under key, each with its declared unit.
func sameMetrics(t *testing.T, res result, key string) {
	t.Helper()
	got := metricNames(res)
	want, units := benchmarkNames(t, key)
	if len(got) != len(want) {
		t.Fatalf("%s: %d metrics %v, BENCHMARK.json declares %d %v", key, len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: metric %q, BENCHMARK.json declares %q", key, got[i], want[i])
		}
		if u := res.Metrics[got[i]].Unit; u != units[got[i]] {
			t.Errorf("%s: metric %q has unit %q, BENCHMARK.json declares %q", key, got[i], u, units[got[i]])
		}
	}
}

func TestEndToEndMetricsMatchBenchmarkJSON(t *testing.T) {
	rep := newReport()
	rep.attempted = 1
	rep.setups = []float64{0.1}
	rep.windows = []winStat{{latMS: []float64{1}, ops: 1, wall: time.Second, cpu: time.Millisecond}}
	sameMetrics(t, rep.result(false), "end_to_end")
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a traced serve-warm workload")
	}
	rep, err := runServeWarm(config{seed: 1, seconds: 800 * time.Millisecond, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.result(true)
	if !res.Correct {
		t.Fatalf("traced run failed its checks: %v %v", rep.failures, rep.runErrors)
	}
	sameMetrics(t, res, "per_layer")
}
