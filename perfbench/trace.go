package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"

	"spcg/internal/service"
)

// accountingTolerance bounds the layer accounting of a traced run: summed
// over traced requests, the self times of the layers (each clamped at zero)
// must add up to the client latency within this share of it, or the run
// fails. A negative self time — a child span outside its parent — is what
// the clamp turns into a gap.
const accountingTolerance = 0.05

// traceHeader carries a traced request's id from the client to the first
// server it reaches. The gateway does not forward it; backends behind the
// gateway find the id in the forwarded body's request_id instead.
const traceHeader = "X-Perfbench-Request"

// tracedPrefix starts the request_id of every traced request.
const tracedPrefix = "t-"

// span is one timed interval at a layer boundary, recorded by the
// benchmark's own wrappers; times are nanoseconds since the tracer's epoch.
type span struct {
	Name    string `json:"name"` // client, gateway, backend
	Op      string `json:"op"`   // solve or affinity
	Parent  string `json:"parent,omitempty"`
	Req     string `json:"req"`
	Backend string `json:"backend,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch    time.Time
	mu       sync.Mutex
	spans    []span
	affinity sync.Map // matrix name → id of the traced request that sent it
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(sp span) {
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

func (t *tracer) at(tm time.Time) int64 { return tm.Sub(t.epoch).Nanoseconds() }

// wrap records a span around h for each traced request h serves. With
// peekBody, a POST /solve without the trace header is identified by its
// request_id, and GET /affinity/{matrix} by the matrix the traced request
// named.
func (t *tracer) wrap(name, parent, backend string, peekBody bool, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id, op := r.Header.Get(traceHeader), "solve"
		if matrix, ok := strings.CutPrefix(r.URL.Path, "/affinity/"); ok {
			op = "affinity"
			if v, ok := t.affinity.Load(matrix); ok && peekBody {
				id = v.(string)
			}
		} else if id == "" && peekBody && r.Method == http.MethodPost && r.URL.Path == "/solve" {
			id = peekRequestID(r)
		}
		h.ServeHTTP(w, r)
		if id != "" {
			t.add(span{Name: name, Op: op, Parent: parent, Req: id, Backend: backend, StartNS: t.at(start), EndNS: t.at(time.Now())})
		}
	})
}

// peekRequestID reads a traced request_id from the body and puts the body
// back for the handler.
func peekRequestID(r *http.Request) string {
	body, err := io.ReadAll(r.Body)
	r.Body.Close()
	r.Body = io.NopCloser(bytes.NewReader(body))
	if err != nil {
		return ""
	}
	var doc struct {
		RequestID string `json:"request_id"`
	}
	if json.Unmarshal(body, &doc) != nil || !strings.HasPrefix(doc.RequestID, tracedPrefix) {
		return ""
	}
	return doc.RequestID
}

// Per-layer names of the served tiers; a workload that does not pass
// through a tier reports its metrics as 0.
var (
	serviceLayerNames = []string{
		"service.http_ms_p50", "service.queue_wait_ms_p50", "service.run_overhead_ms_p50", "service.solve_ms_p50",
		"service.batched_frac", "service.batch_size_mean", "service.setup_cache_hit_frac",
		"service.format_cache_hit_frac", "service.shed_frac", "service.degraded_frac",
	}
	gatewayLayerNames = []string{
		"gateway.self_ms_p50", "gateway.affinity_resolve_ms_p50", "gateway.affinity_cross_backend_frac",
		"gateway.backend_attempts_per_request", "gateway.affinity_hit_frac",
	}
)

func zeroMissing(layers map[string]float64, names []string) {
	for _, k := range names {
		if _, ok := layers[k]; !ok {
			layers[k] = 0
		}
	}
}

// checkAccounting records the accounting gap and fails the run when it
// exceeds accountingTolerance.
func checkAccounting(rep *report, gapFrac float64) {
	rep.layers["trace.layer_sum_gap_frac"] = gapFrac
	if !(gapFrac <= accountingTolerance) {
		rep.runErrors = append(rep.runErrors, fmt.Sprintf(
			"layer accounting: self times miss the client latency by %.3g of it (tolerance %.2g)", gapFrac, accountingTolerance))
	}
}

// accountServed splits every traced served request into layer self times:
//
//	client      client span − first server span (gateway, or backend)
//	gateway     gateway span − its backend spans (affinity and solve)
//	affinity    backend /affinity spans
//	http        backend /solve spans − (Finished − Submitted)
//	queue       Started − Submitted
//	run         Finished − Started − solve_ms
//	solve       solve_ms
//
// The JobStatus timestamps and solve_ms come from the service itself. It
// fills the service.* and gateway.* span metrics and checks the accounting.
func accountServed(rep *report, tr *tracer, traced []sample, gatewayMode bool) {
	byReq := map[string][]span{}
	for _, sp := range tr.spans {
		byReq[sp.Req] = append(byReq[sp.Req], sp)
	}
	var httpMS, queueMS, runMS, solveMS, gwMS, affMS []float64
	var gap, total float64
	var attempts, withAffinity, cross int
	for _, s := range traced {
		c := ms(s.end.Sub(s.start))
		total += c
		st := s.st
		var gw, aff, sol float64
		var haveGW bool
		var affBackend, solveBackend string
		for _, sp := range byReq[s.id] {
			switch {
			case sp.Name == "gateway":
				gw, haveGW = sp.ms(), true
			case sp.Name == "backend" && sp.Op == "affinity":
				aff += sp.ms()
				affBackend = sp.Backend
				attempts++
			case sp.Name == "backend":
				sol += sp.ms()
				solveBackend = sp.Backend
				attempts++
			}
		}
		if st == nil || st.Started == nil || st.Finished == nil || st.Result == nil || solveBackend == "" || (gatewayMode && !haveGW) {
			gap += c // nothing to account this request with
			continue
		}
		if affBackend != "" {
			withAffinity++
			if affBackend != solveBackend {
				cross++
			}
		}
		inner := ms(st.Finished.Sub(st.Submitted))
		queue := ms(st.Started.Sub(st.Submitted))
		solve := st.Result.SolveMS
		run := ms(st.Finished.Sub(*st.Started)) - solve
		httpSelf := sol - inner
		first := sol
		if gatewayMode {
			first = gw
		}
		layers := []float64{c - first, httpSelf, queue, run, solve}
		if gatewayMode {
			layers = append(layers, gw-aff-sol, aff)
			gwMS = append(gwMS, gw-aff-sol)
			if aff > 0 {
				affMS = append(affMS, aff)
			}
		}
		var sum float64
		for _, l := range layers {
			sum += math.Max(0, l)
		}
		gap += math.Abs(sum - c)
		httpMS = append(httpMS, httpSelf)
		queueMS = append(queueMS, queue)
		runMS = append(runMS, run)
		solveMS = append(solveMS, solve)
	}
	L := rep.layers
	L["service.http_ms_p50"] = median(httpMS)
	L["service.queue_wait_ms_p50"] = median(queueMS)
	L["service.run_overhead_ms_p50"] = median(runMS)
	L["service.solve_ms_p50"] = median(solveMS)
	if gatewayMode {
		L["gateway.self_ms_p50"] = median(gwMS)
		L["gateway.affinity_resolve_ms_p50"] = median(affMS)
		L["gateway.affinity_cross_backend_frac"] = frac(cross, withAffinity)
		L["gateway.backend_attempts_per_request"] = frac(attempts, len(traced))
	}
	rep.props["traced_requests"] = len(traced)
	gapFrac := math.Inf(1)
	if total > 0 {
		gapFrac = gap / total
	}
	checkAccounting(rep, gapFrac)
}

// statusOf decodes a /solve response body.
func statusOf(body []byte) (*service.JobStatus, error) {
	var st service.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, err
	}
	return &st, nil
}
