package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"spcg"
	"spcg/internal/gateway"
	"spcg/internal/service"
)

// Served workloads: closed loops of servedClients callers, each a
// simulation step waiting for its solution. See README.md.
const (
	servedClients = 2
	servedS       = 4
	// e2eWindows is how many windows an untraced run splits its measured
	// time into; tracedWindows how many alternating untraced/traced windows
	// a traced run does.
	e2eWindows    = 5
	tracedWindows = 8
)

// serve-warm: spcgload's default mix against one in-process spcgd.
var (
	warmMatrices = []string{"poisson2d:16", "poisson2d:24", "hubgraph:4096"}
	warmMethods  = []string{"pcg", "pcg3", "spcg", "capcg", "capcg3", "auto"}
)

// gateway-cold: every request names a matrix the run has not sent before.
const (
	coldCacheSize = 4
	coldPrecond   = "chebyshev:3"
	coldWarmup    = "varcoeff3d:16:4:0"
)

// sequence hands out a workload's requests in a fixed order, whichever
// client asks: request i depends only on the seed and i.
type sequence struct {
	mu  sync.Mutex
	i   int
	gen func(i int) service.SolveRequest
}

func (s *sequence) next() (int, service.SolveRequest) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.i
	s.i++
	return i, s.gen(i)
}

// warmGen draws serve-warm requests: each block of len(matrices)×len(methods)
// requests is a seeded permutation of every (matrix, method) pair.
func warmGen(seed int64) func(int) service.SolveRequest {
	rng := rand.New(rand.NewSource(seed))
	k := len(warmMatrices) * len(warmMethods)
	var perm []int
	return func(i int) service.SolveRequest {
		if i%k == 0 {
			perm = rng.Perm(k)
		}
		c := perm[i%k]
		return warmRequest(warmMatrices[c/len(warmMethods)], warmMethods[c%len(warmMethods)])
	}
}

func warmRequest(matrix, method string) service.SolveRequest {
	return service.SolveRequest{Matrix: matrix, Method: method, Precond: "jacobi", S: servedS}
}

// coldMatrix names request i's matrix: a 16³ variable-coefficient operator,
// or every fifth request a 4096-vertex hub graph (high row-length variance,
// so the format selector probes SELL), with a generator seed unique to
// (seed, i).
func coldMatrix(seed int64, i int) string {
	u := splitmix64(splitmix64(uint64(seed))+uint64(i))>>2 + 1
	if i%5 == 2 {
		return "hubgraph:4096:" + strconv.FormatUint(u, 10)
	}
	return "varcoeff3d:16:4:" + strconv.FormatUint(u, 10)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func coldGen(seed int64) func(int) service.SolveRequest {
	return func(i int) service.SolveRequest { return coldRequest(coldMatrix(seed, i)) }
}

// coldRequest is an sPCG solve with the Chebyshev basis. Hub graphs use
// Jacobi: chebyshev:3 solves them almost exactly, and sPCG then breaks down
// on its singular Gram system (the lucky-convergence defect README.md lists
// under what the benchmark exposes), so every such request would fail.
func coldRequest(matrix string) service.SolveRequest {
	prec := coldPrecond
	if strings.HasPrefix(matrix, "hubgraph:") {
		prec = "jacobi"
	}
	return service.SolveRequest{Matrix: matrix, Method: "spcg", Precond: prec, S: servedS, Basis: "chebyshev"}
}

// stack is the in-process serving tier: spcgd backends and, for
// gateway-cold, an spcggw gateway, each on its own loopback listener.
type stack struct {
	servers []*service.Server
	gw      *gateway.Gateway
	https   []*http.Server
	wg      sync.WaitGroup
	url     string
	client  *http.Client
}

// serve starts h on a loopback listener and returns its host:port.
func (st *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	st.https = append(st.https, srv)
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return ln.Addr().String(), nil
}

// startStack starts one spcgd per config; with gatewayMode a gateway fronts
// them. A non-nil tracer wraps every handler.
//
// The gateway knows its backends by fixed names (spcgd-0, spcgd-1, ...)
// that its client dials at the real loopback ports: the hash ring places
// backends by name, so ephemeral ports would give every run a different
// split of the matrices between backends.
func startStack(cfgs []service.Config, gatewayMode bool, tr *tracer) (*stack, error) {
	st := &stack{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: servedClients}}}
	addrs := map[string]string{} // backend name:80 → loopback host:port
	var names []string
	for i, c := range cfgs {
		srv := service.New(c)
		st.servers = append(st.servers, srv)
		h := srv.Handler()
		name := "spcgd-" + strconv.Itoa(i)
		if tr != nil {
			parent := "client"
			if gatewayMode {
				parent = "gateway"
			}
			h = tr.wrap("backend", parent, name, gatewayMode, h)
		}
		addr, err := st.serve(h)
		if err != nil {
			st.close()
			return nil, err
		}
		addrs[name+":80"] = addr
		names = append(names, "http://"+name)
		if i == 0 {
			st.url = "http://" + addr
		}
	}
	if gatewayMode {
		var d net.Dialer
		dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
			if real, ok := addrs[addr]; ok {
				addr = real
			}
			return d.DialContext(ctx, network, addr)
		}
		gw, err := gateway.New(gateway.Config{
			Backends: names,
			Client:   &http.Client{Transport: &http.Transport{DialContext: dial, MaxIdleConnsPerHost: servedClients}},
		})
		if err != nil {
			st.close()
			return nil, err
		}
		st.gw = gw
		var h http.Handler = gw.Handler()
		if tr != nil {
			h = tr.wrap("gateway", "client", "", false, h)
		}
		addr, err := st.serve(h)
		if err != nil {
			st.close()
			return nil, err
		}
		st.url = "http://" + addr
	}
	return st, nil
}

// close stops listeners, the gateway and the services, and waits for every
// serving goroutine to return.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, h := range st.https {
		_ = h.Shutdown(ctx)
	}
	st.wg.Wait()
	if st.gw != nil {
		st.gw.Close()
	}
	for _, s := range st.servers {
		_ = s.Shutdown(ctx)
	}
	st.client.CloseIdleConnections()
}

// sample is one request as the client saw it.
type sample struct {
	i          int
	req        service.SolveRequest
	id         string // request id of a traced request
	start, end time.Time
	code       int
	st         *service.JobStatus
	err        error
}

// post sends payload as JSON to the stack's entry point and waits for the
// answer.
func (st *stack) post(path string, payload any, header map[string]string) (int, []byte, error) {
	body, err := json.Marshal(payload)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequest(http.MethodPost, st.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// solveOnce sends request i, traced or not, and records what came back.
func (st *stack) solveOnce(i int, req service.SolveRequest, traced, gatewayMode bool, tr *tracer) sample {
	var header map[string]string
	s := sample{i: i, req: req}
	if gatewayMode {
		// As spcgload does against a gateway: an idempotency key per request.
		req.RequestID = "u-" + strconv.Itoa(i)
	}
	if traced {
		s.id = tracedPrefix + strconv.Itoa(i)
		header = map[string]string{traceHeader: s.id}
		if gatewayMode {
			req.RequestID = s.id
			tr.affinity.Store(req.Matrix, s.id)
		}
	}
	s.start = time.Now()
	code, body, err := st.post("/solve", req, header)
	s.end = time.Now()
	s.code, s.err = code, err
	if err == nil && code == http.StatusOK {
		s.st, s.err = statusOf(body)
	}
	if traced {
		tr.add(span{Name: "client", Op: "solve", Req: s.id, StartNS: tr.at(s.start), EndNS: tr.at(s.end)})
	}
	return s
}

// window is one closed-loop measurement interval.
type window struct {
	traced  bool
	samples []sample
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
}

// drive runs servedClients closed-loop callers for d and waits for their
// last requests to finish.
func (st *stack) drive(seq *sequence, d time.Duration, traced, gatewayMode bool, tr *tracer) window {
	w := window{traced: traced}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < servedClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i, req := seq.next()
				s := st.solveOnce(i, req, traced, gatewayMode, tr)
				mu.Lock()
				w.samples = append(w.samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.wall = time.Since(start)
	w.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	w.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	sort.Slice(w.samples, func(a, b int) bool { return w.samples[a].i < w.samples[b].i })
	return w
}

// measure runs the measured phase: e2eWindows untraced windows, or for a
// traced run tracedWindows alternating untraced and traced ones.
func (st *stack) measure(cfg config, seq *sequence, gatewayMode bool, tr *tracer) []window {
	n := e2eWindows
	if cfg.trace {
		n = tracedWindows
	}
	var out []window
	for k := 0; k < n; k++ {
		out = append(out, st.drive(seq, cfg.seconds/time.Duration(n), cfg.trace && k%2 == 1, gatewayMode, tr))
	}
	return out
}

// checkSample applies the output checks to one served request.
func checkSample(s sample, refs map[string]float64) error {
	switch {
	case s.err != nil:
		return s.err
	case s.code != http.StatusOK:
		return fmt.Errorf("HTTP %d", s.code)
	case s.st.State != service.JobDone || s.st.Result == nil:
		return fmt.Errorf("job %s ended %s", s.st.ID, s.st.State)
	}
	ref, ok := refs[s.req.Matrix]
	if !ok {
		return errors.New("no reference solution")
	}
	r := s.st.Result
	return checkSolution(r.Converged, r.TrueRelResidual, r.XNorm, ref)
}

// references computes each matrix's reference solution norm for the
// all-ones right-hand side spcgd solves with, two matrices at a time.
func references(names []string, refs map[string]float64) error {
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan string)
	for w := 0; w < servedClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name := range next {
				a, err := buildMatrix(name)
				var ref float64
				if err == nil {
					ref, err = referenceXNorm(a, ones(a.N))
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", name, err)
				}
				refs[name] = ref
				mu.Unlock()
			}
		}()
	}
	for _, name := range names {
		next <- name
	}
	close(next)
	wg.Wait()
	return firstErr
}

// servedRun is the shared skeleton of the two served workloads.
type servedRun struct {
	cfgs        []service.Config
	gatewayMode bool
	gen         func(seed int64) func(int) service.SolveRequest
	// warm prepares a fresh stack; its time counts into setup_s.
	warm func(st *stack, rep *report, refs map[string]float64) error
	// known lists matrices with references before the measured phase.
	known []string
}

func (sr servedRun) run(cfg config) (*report, error) {
	rep := newReport()
	refs := map[string]float64{}
	if err := references(sr.known, refs); err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var st *stack
	for k := 0; k < setupReps; k++ {
		if st != nil {
			st.close()
			st = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if st, err = startStack(sr.cfgs, sr.gatewayMode, tr); err != nil {
			return nil, err
		}
		if err := sr.warm(st, rep, refs); err != nil {
			st.close()
			return nil, err
		}
		rep.setups = append(rep.setups, time.Since(t0).Seconds())
	}
	defer st.close()

	before := serverTotals(st)
	var gwBefore gateway.Snapshot
	if st.gw != nil {
		gwBefore = st.gw.Snapshot()
	}
	windows := st.measure(cfg, &sequence{gen: sr.gen(cfg.seed)}, sr.gatewayMode, tr)
	after := serverTotals(st)

	var all []sample
	for _, w := range windows {
		all = append(all, w.samples...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].i < all[b].i })
	var names []string
	seen := map[string]bool{}
	for _, name := range sr.known {
		seen[name] = true
	}
	distinct := map[string]bool{}
	seenBefore := 0
	for _, s := range all {
		if seen[s.req.Matrix] {
			seenBefore++
		} else if _, ok := refs[s.req.Matrix]; !ok {
			names = append(names, s.req.Matrix)
		}
		seen[s.req.Matrix] = true
		distinct[s.req.Matrix] = true
	}
	// gateway-cold's matrices are new to the run: their references are
	// computed now, outside the measured phase, once per matrix.
	if err := references(names, refs); err != nil {
		return nil, err
	}

	var batched, degraded, shed, okCount int
	var batchSizes float64
	autoConfigs := map[string][]string{}
	passed := map[int]bool{} // by request index
	for i := range all {
		s := &all[i]
		rep.attempted++
		err := checkSample(*s, refs)
		if err != nil {
			rep.fail(fmt.Sprintf("request %d (%s %s): %v", s.i, s.req.Method, s.req.Matrix, err))
			if s.code == http.StatusTooManyRequests {
				shed++
			}
			continue
		}
		okCount++
		passed[s.i] = true
		r := s.st.Result
		if r.Batched {
			batched++
		}
		batchSizes += float64(r.BatchSize)
		if r.DegradedFrom != "" {
			degraded++
		}
		if r.TunedConfig != nil {
			cfgName := r.TunedConfig.String()
			if !contains(autoConfigs[s.req.Matrix], cfgName) {
				autoConfigs[s.req.Matrix] = append(autoConfigs[s.req.Matrix], cfgName)
			}
		}
	}

	var untracedAlloc uint64
	var untracedOps int
	var plainLat, tracedLat []float64
	var traced []sample
	for _, w := range windows {
		var ws winStat
		for _, s := range w.samples {
			lat := ms(s.end.Sub(s.start))
			if w.traced {
				tracedLat = append(tracedLat, lat)
				traced = append(traced, s)
				continue
			}
			plainLat = append(plainLat, lat)
			if passed[s.i] {
				ws.latMS = append(ws.latMS, lat)
			}
		}
		if !w.traced {
			ws.ops, ws.wall, ws.cpu = len(w.samples), w.wall, w.cpu
			rep.windows = append(rep.windows, ws)
			untracedAlloc += w.alloc
			untracedOps += len(w.samples)
		}
	}

	var ws int64
	var largest string
	var largestN int
	for name := range distinct {
		a, err := buildMatrix(name)
		if err != nil {
			return nil, err
		}
		ws += workingSetBytes(a, servedS)
		if a.N > largestN || (a.N == largestN && name < largest) {
			largest, largestN = name, a.N
		}
	}
	_, llc := cacheSizes()
	rep.props["requests"] = len(all)
	rep.props["distinct_matrices"] = len(distinct)
	rep.props["seen_before_frac"] = frac(seenBefore, len(all))
	rep.props["coalesced_frac"] = frac(batched, okCount)
	rep.props["working_set_bytes"] = ws
	rep.props["llc_bytes"] = llc
	if len(autoConfigs) > 0 {
		rep.props["auto_configs"] = autoConfigs
	}

	if !cfg.trace {
		return rep, nil
	}
	L := rep.layers
	L["service.batched_frac"] = frac(batched, okCount)
	L["service.batch_size_mean"] = batchSizes / float64(max(okCount, 1))
	L["service.degraded_frac"] = frac(degraded, okCount)
	L["service.shed_frac"] = frac(shed, len(all))
	hits, misses := after.hits-before.hits, after.misses-before.misses
	L["service.setup_cache_hit_frac"] = frac(int(hits), int(hits+misses))
	// spcgd counts no format-cache hits; a solve can only hit when its
	// matrix was already solved in the run, so this is that share.
	L["service.format_cache_hit_frac"] = frac(seenBefore, len(all))
	if st.gw != nil {
		g := st.gw.Snapshot()
		h, m := g.AffinityHits-gwBefore.AffinityHits, g.AffinityMiss-gwBefore.AffinityMiss
		L["gateway.affinity_hit_frac"] = frac(int(h), int(h+m))
	}
	L["go.alloc_mb_per_solve"] = float64(untracedAlloc) / 1e6 / float64(max(untracedOps, 1))
	L["trace.overhead_frac"] = median(tracedLat)/median(plainLat) - 1
	tr.mu.Lock()
	rep.spans = append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	accountServed(rep, tr, traced, sr.gatewayMode)
	zeroMissing(L, gatewayLayerNames)

	// The lower layers, driven directly on the workload's own matrices with
	// their requests' preconditioners: set-up steps, every solver method,
	// and the kernels on the largest matrix.
	sample := sampleRequests(all, 3)
	if err := setupLayers(L, sample, servedS); err != nil {
		return nil, err
	}
	var outs []outcome
	for _, req := range sample {
		a, err := buildMatrix(req.Matrix)
		if err != nil {
			return nil, err
		}
		p, err := newProblem(req.Matrix, a, req.Precond, servedS, spcg.TrueResidual2Norm, ones(a.N))
		if err != nil {
			return nil, err
		}
		p.ref = refs[req.Matrix]
		for _, m := range solverMethods {
			o := p.solve(m, true)
			rep.attempted++
			if o.err != nil {
				rep.fail(o.err.Error())
			}
			outs = append(outs, o)
		}
	}
	solverLayers(L, outs)
	a, err := buildMatrix(largest)
	if err != nil {
		return nil, err
	}
	kernelLayers(L, a, servedS)
	return rep, nil
}

// sampleRequests returns the first request of each of the run's first k
// distinct matrices, in request order.
func sampleRequests(all []sample, k int) []service.SolveRequest {
	var out []service.SolveRequest
	seen := map[string]bool{}
	for _, s := range all {
		if len(out) == k {
			break
		}
		if !seen[s.req.Matrix] {
			seen[s.req.Matrix] = true
			out = append(out, s.req)
		}
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

type cacheTotals struct{ hits, misses int64 }

// serverTotals sums the setup-cache counters over the stack's services.
func serverTotals(st *stack) cacheTotals {
	var t cacheTotals
	for _, s := range st.servers {
		m := s.Metrics()
		t.hits += m.SetupCache.Hits
		t.misses += m.SetupCache.Misses
	}
	return t
}

// warmServe tunes every matrix (POST /tune, so method "auto" resolves from
// the decision store), then sends every (matrix, method) pair once, so the
// setup and format caches are warm before timing starts.
func warmServe(st *stack, rep *report, refs map[string]float64) error {
	tuned := map[string]string{}
	for _, m := range warmMatrices {
		code, body, err := st.post("/tune", map[string]string{"matrix": m}, nil)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("tune %s: HTTP %d %v %s", m, code, err, body)
		}
		var d spcg.TuneDecision
		if err := json.Unmarshal(body, &d); err != nil {
			return err
		}
		tuned[m] = d.Winner.String()
	}
	rep.props["auto_tuned"] = tuned
	i := -1
	for _, m := range warmMatrices {
		for _, method := range warmMethods {
			checkWarm(st.solveOnce(i, warmRequest(m, method), false, false, nil), rep, refs)
			i--
		}
	}
	return nil
}

// warmCold sends one request for a fixed matrix outside the measured
// sequence, so connections and code paths are warm while every measured
// matrix stays new.
func warmCold(st *stack, rep *report, refs map[string]float64) error {
	checkWarm(st.solveOnce(-1, coldRequest(coldWarmup), false, true, nil), rep, refs)
	return nil
}

// checkWarm counts a set-up request like any other operation.
func checkWarm(s sample, rep *report, refs map[string]float64) {
	rep.attempted++
	if err := checkSample(s, refs); err != nil {
		rep.fail(fmt.Sprintf("warm-up %s %s: %v", s.req.Method, s.req.Matrix, err))
	}
}

func runServeWarm(cfg config) (*report, error) {
	return servedRun{
		cfgs:  []service.Config{{Workers: 2}},
		gen:   warmGen,
		warm:  warmServe,
		known: warmMatrices,
	}.run(cfg)
}

func runGatewayCold(cfg config) (*report, error) {
	backend := service.Config{Workers: 1, CacheSize: coldCacheSize}
	return servedRun{
		cfgs:        []service.Config{backend, backend},
		gatewayMode: true,
		gen:         coldGen,
		warm:        warmCold,
		known:       []string{coldWarmup},
	}.run(cfg)
}
