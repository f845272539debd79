// Package api exposes the simulator over HTTP as a JSON service — the
// shape a capacity-planning dashboard or load generator consumes. All
// traffic flows through a gateway (internal/gateway) that provides a
// bounded queue with 429 backpressure, batched execution, per-request
// cancellation, graceful drain and metrics.
//
// v1 endpoints (see docs/api.md for schemas and examples):
//
//	GET  /v1/                        endpoint index
//	GET  /v1/models                  model presets
//	GET  /v1/platforms               platform registry
//	GET|POST /v1/simulate            one simulated inference point
//	GET|POST /v1/autotune            configuration search
//	POST /v1/generate                one request through the batching gateway
//	                                 ("stream": true → SSE per-token chunks)
//	POST /v1/chat/completions        OpenAI-compatible chat completions
//	POST /v1/completions             OpenAI-compatible text completions alias
//	GET  /v1/experiments             experiment keys
//	GET  /v1/experiments/{key}       one experiment's rendered tables
//	GET  /v1/scorecard               reproduction scorecard
//	GET  /v1/kv                      per-lane KV pool governance status
//	GET  /v1/cache                   prefix-cache status (hit rate, retained blocks)
//	GET  /v1/cluster                 replica health and failover status
//	GET|POST|DELETE /v1/admin/faults runtime fault injection control
//	POST /v1/admin/cache/flush       drop unpinned prefix-cache entries
//	GET  /metrics                    Prometheus metrics
//	GET  /healthz, /readyz           liveness / readiness
package api

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/autotune"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gateway"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Server is the v1 API bound to one backend — a single gateway or a
// cluster router (see backend.go).
type Server struct {
	gw   Backend
	reg  *metrics.Registry
	reqs *metrics.Counter
	errs *metrics.Counter
}

// NewServer returns a server routing execution through gw. A nil gw gets
// a default gateway (continuous batching, default bounds) wired to the
// standard lane resolver.
func NewServer(gw Backend) *Server {
	if gw == nil {
		gw = gateway.New(gateway.Config{}, LaneResolver())
	}
	reg := gw.Registry()
	return &Server{
		gw:   gw,
		reg:  reg,
		reqs: reg.Counter("api_http_requests_total", "HTTP requests received"),
		errs: reg.Counter("api_http_errors_total", "HTTP responses with status >= 400"),
	}
}

// Gateway returns the server's backend (for shutdown wiring).
func (s *Server) Gateway() Backend { return s.gw }

// endpointInfo describes one route in the /v1/ index.
type endpointInfo struct {
	Method      string `json:"method"`
	Path        string `json:"path"`
	Description string `json:"description"`
}

var endpoints = []endpointInfo{
	{"GET", "/v1/", "this index"},
	{"GET", "/v1/models", "model presets the paper evaluates"},
	{"GET", "/v1/platforms", "platform registry (CPUs and GPUs of Tables I-II)"},
	{"POST", "/v1/simulate", "price one inference point (platform, model, batch, in, out)"},
	{"POST", "/v1/autotune", "search CPU configurations for an objective"},
	{"POST", "/v1/generate", `serve one generation request through the batching gateway; "stream": true delivers per-token SSE chunks (data: {...}, data: [DONE])`},
	{"POST", "/v1/chat/completions", `OpenAI-compatible chat completions (usage, finish_reason); "stream": true delivers chat.completion.chunk SSE`},
	{"POST", "/v1/completions", "OpenAI-compatible legacy text completions alias, sharing /v1/generate validation and streaming"},
	{"GET", "/v1/experiments", "paper experiment keys"},
	{"GET", "/v1/experiments/{key}", "run one experiment, rendered tables"},
	{"GET", "/v1/scorecard", "reproduction scorecard"},
	{"GET", "/v1/traces", "recent request traces (?id= for one, ?limit= to page)"},
	{"GET", "/v1/kv", "per-lane KV pool governance: blocks, watermarks, quotas, preemptions"},
	{"GET", "/v1/cache", "prefix-cache status: tree sizes, hit rate, retained blocks per lane (404 while caching is disabled)"},
	{"GET", "/v1/cluster", "replica health, routing policy and failover counters (404 unless -replicas > 1)"},
	{"GET", "/v1/overload", "overload control status: brownout level, active degradations, adaptive concurrency limit, per-class admission counters (404 while disabled)"},
	{"GET, POST, DELETE", "/v1/admin/faults", "inspect, arm or disarm runtime fault injection"},
	{"POST", "/v1/admin/cache/flush", "drop every unpinned prefix-cache entry, returning blocks_released"},
	{"GET", "/metrics", "Prometheus metrics (gateway queue, TTFT/TPOT/E2E histograms)"},
	{"GET", "/healthz", "liveness"},
	{"GET", "/readyz", "readiness (503 while draining)"},
}

// Handler builds the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc, methods ...string) {
		mux.HandleFunc(pattern, s.instrument(h, methods))
	}
	route("/v1/{$}", s.handleIndex, http.MethodGet)
	route("/v1/models", s.handleModels, http.MethodGet)
	route("/v1/platforms", s.handlePlatforms, http.MethodGet)
	route("/v1/simulate", s.handleSimulate, http.MethodPost)
	route("/v1/autotune", s.handleAutotune, http.MethodPost)
	route("/v1/generate", s.handleGenerate, http.MethodPost)
	route("/v1/chat/completions", s.handleChatCompletions, http.MethodPost)
	route("/v1/completions", s.handleCompletions, http.MethodPost)
	route("/v1/experiments", s.handleExperimentList, http.MethodGet)
	route("/v1/experiments/{key}", s.handleExperiment, http.MethodGet)
	route("/v1/scorecard", s.handleScorecard, http.MethodGet)
	route("/v1/traces", s.handleTraces, http.MethodGet)
	route("/v1/kv", s.handleKV, http.MethodGet)
	route("/v1/cache", s.handleCache, http.MethodGet)
	route("/v1/cluster", s.handleCluster, http.MethodGet)
	route("/v1/overload", s.handleOverload, http.MethodGet)
	route("/v1/admin/faults", s.handleAdminFaults, http.MethodGet, http.MethodPost, http.MethodDelete)
	route("/v1/admin/cache/flush", s.handleCacheFlush, http.MethodPost)
	route("/metrics", s.handleMetrics, http.MethodGet)
	route("/healthz", s.handleHealthz, http.MethodGet)
	route("/readyz", s.handleReadyz, http.MethodGet)
	// Uniform JSON 404 for everything unmatched, with the same header and
	// envelope contract (X-Request-ID, X-Trace-ID, trace_id) as real routes.
	mux.HandleFunc("/", s.instrument(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, CodeNotFound,
			fmt.Errorf("no such endpoint %s (see /v1/ for the index)", r.URL.Path))
	}, nil))
	return mux
}

// instrument is the per-route middleware: it counts requests, enforces the
// allowed method set (uniform 405 envelope with an Allow header; nil
// methods allow everything), establishes the request's identity — the
// X-Request-ID header is echoed or generated, a trace is started against
// the gateway's tracer and stamped as X-Trace-ID — and records the
// handler-phase span when the handler returns. An empty method list (the
// 404 fallback) skips method enforcement.
func (s *Server) instrument(h http.HandlerFunc, methods []string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.reqs.Inc()
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = trace.NewID()
		}
		tr := s.gw.Tracer().Start(reqID)
		w.Header().Set("X-Request-ID", reqID)
		if id := tr.ID(); id != "" {
			w.Header().Set("X-Trace-ID", id)
		}
		r = r.WithContext(trace.NewContext(r.Context(), tr))
		sw := &statusWriter{ResponseWriter: w, errs: s.errs}
		start := time.Now()
		defer func() {
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			tr.Add(trace.SpanData{Name: trace.PhaseHandler, Start: start, End: time.Now(),
				Attrs: map[string]string{"method": r.Method, "path": r.URL.Path,
					"status": strconv.Itoa(status)}})
			tr.Finish()
		}()
		if len(methods) == 0 {
			h(sw, r)
			return
		}
		for _, m := range methods {
			if r.Method == m {
				h(sw, r)
				return
			}
		}
		sw.Header().Set("Allow", strings.Join(methods, ", "))
		writeError(sw, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			fmt.Errorf("method %s not allowed on %s", r.Method, r.URL.Path))
	}
}

// statusWriter counts error responses and remembers the status for the
// handler-phase span.
type statusWriter struct {
	http.ResponseWriter
	errs    *metrics.Counter
	counted bool
	status  int
}

// Flush forwards to the wrapped writer so SSE streaming works through
// the status-capturing middleware.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the wrapped writer to http.ResponseController.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

func (sw *statusWriter) WriteHeader(status int) {
	if sw.status == 0 {
		sw.status = status
	}
	if status >= 400 && !sw.counted {
		sw.counted = true
		sw.errs.Inc()
	}
	sw.ResponseWriter.WriteHeader(status)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"endpoints": endpoints})
}

type modelInfo struct {
	Name      string  `json:"name"`
	Family    string  `json:"family"`
	Layers    int     `json:"layers"`
	DModel    int     `json:"d_model"`
	Heads     int     `json:"heads"`
	KVHeads   int     `json:"kv_heads"`
	DFF       int     `json:"d_ff"`
	Vocab     int     `json:"vocab"`
	ParamsB   float64 `json:"params_billion"`
	BF16GB    float64 `json:"bf16_gb"`
	MaxSeqLen int     `json:"max_seq_len"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	var out []modelInfo
	for _, m := range model.Evaluated() {
		out = append(out, modelInfo{
			Name: m.Name, Family: m.Family.String(),
			Layers: m.Layers, DModel: m.DModel,
			Heads: m.Heads, KVHeads: m.KVHeads, DFF: m.DFF, Vocab: m.Vocab,
			ParamsB:   float64(m.ParamCount()) / 1e9,
			BF16GB:    float64(m.WeightBytes(tensor.BF16)) / 1e9,
			MaxSeqLen: m.MaxSeq,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// platformInfo is one registry entry in JSON form, with the capability
// block for its kind so clients can build request forms (core counts,
// memory modes, AMX/HBM availability) without hardcoding the registry.
type platformInfo struct {
	Key         string           `json:"key"`
	Kind        string           `json:"kind"`
	Name        string           `json:"name"`
	Description string           `json:"description"`
	CPU         *cpuCapabilities `json:"cpu,omitempty"`
	GPU         *gpuCapabilities `json:"gpu,omitempty"`
}

// cpuCapabilities summarizes a CPU platform's tunables for /v1/platforms.
type cpuCapabilities struct {
	Sockets        int      `json:"sockets"`
	CoresPerSocket int      `json:"cores_per_socket"`
	FreqGHz        float64  `json:"freq_ghz"`
	AMX            bool     `json:"amx"`
	AVX512TFLOPS   float64  `json:"avx512_peak_tflops"`
	AMXTFLOPS      float64  `json:"amx_peak_tflops,omitempty"`
	DDRGB          float64  `json:"ddr_gb"`
	DDRGBs         float64  `json:"ddr_gbs"`
	HBMGB          float64  `json:"hbm_gb,omitempty"`
	HBMGBs         float64  `json:"hbm_gbs,omitempty"`
	UPIGBs         float64  `json:"upi_gbs"`
	MemModes       []string `json:"mem_modes"`
	Clusters       []string `json:"clusters"`
}

// gpuCapabilities summarizes a GPU platform for /v1/platforms.
type gpuCapabilities struct {
	SMs          int     `json:"sms"`
	PeakTFLOPS   float64 `json:"peak_tflops"`
	MemGB        float64 `json:"mem_gb"`
	BandwidthGBs float64 `json:"bandwidth_gbs"`
	Link         string  `json:"link"`
	LinkGBs      float64 `json:"link_gbs"`
}

func platformCapabilities(e hw.PlatformEntry) (*cpuCapabilities, *gpuCapabilities) {
	if e.Kind == hw.CPUPlatform {
		c := e.CPU
		caps := &cpuCapabilities{
			Sockets:        c.Sockets,
			CoresPerSocket: c.CoresPerSocket,
			FreqGHz:        c.FreqGHz,
			AMX:            c.HasAMX(),
			AVX512TFLOPS:   c.AVX512.PeakTFLOPS,
			AMXTFLOPS:      c.AMX.PeakTFLOPS,
			DDRGB:          c.DDR.CapacityGB,
			DDRGBs:         c.DDR.BandwidthGBs,
			HBMGB:          c.HBM.CapacityGB,
			HBMGBs:         c.HBM.BandwidthGBs,
			UPIGBs:         c.UPIGBs,
			MemModes:       []string{"flat", "ddr"},
			Clusters:       []string{"quad"},
		}
		if c.HBM.CapacityGB > 0 {
			caps.MemModes = []string{"flat", "cache", "hbm-only", "ddr"}
			caps.Clusters = []string{"quad", "snc"}
		}
		return caps, nil
	}
	g := e.GPU
	return nil, &gpuCapabilities{
		SMs:          g.SMs,
		PeakTFLOPS:   g.PeakTFLOPS,
		MemGB:        g.MemGB,
		BandwidthGBs: g.BandwidthGBs,
		Link:         g.PCIe.Name,
		LinkGBs:      g.PCIe.TheoreticalGBs,
	}
}

func (s *Server) handlePlatforms(w http.ResponseWriter, r *http.Request) {
	entries := hw.Platforms()
	out := make([]platformInfo, len(entries))
	for i, e := range entries {
		cpu, gpu := platformCapabilities(e)
		out[i] = platformInfo{Key: e.Key, Kind: e.Kind.String(),
			Name: e.Name(), Description: e.Description, CPU: cpu, GPU: gpu}
	}
	writeJSON(w, http.StatusOK, out)
}

// simResponse is the JSON form of a simulation result.
type simResponse struct {
	Platform        string  `json:"platform"`
	Model           string  `json:"model"`
	Batch           int     `json:"batch"`
	InputLen        int     `json:"input_len"`
	OutputLen       int     `json:"output_len"`
	TTFTMillis      float64 `json:"ttft_ms"`
	TPOTMillis      float64 `json:"tpot_ms"`
	E2ESeconds      float64 `json:"e2e_s"`
	TokensPerSecond float64 `json:"tokens_per_second"`
	PCIeFraction    float64 `json:"pcie_fraction"`
	LLCMPKI         float64 `json:"llc_mpki,omitempty"`
	CoreUtilization float64 `json:"core_utilization,omitempty"`
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if err := decodeBody(r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	m, entry, err := req.normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}

	var setup core.CPUSetup
	if entry.Kind == hw.CPUPlatform {
		setup, err = cpuSetup(entry, req.Cores, req.MemMode, req.Cluster)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, err)
			return
		}
	}
	var res core.Result
	var simErr error
	gwErr := s.gw.Do(r.Context(), func(context.Context) error {
		if entry.Kind == hw.CPUPlatform {
			res, simErr = core.SimulateCPU(setup, m, req.Batch, req.InputLen, req.OutputLen)
		} else {
			res, simErr = core.SimulateGPU(*entry.GPU, m, req.Batch, req.InputLen, req.OutputLen)
		}
		return nil
	})
	if gwErr != nil {
		s.writeGatewayError(w, gwErr)
		return
	}
	if simErr != nil {
		writeError(w, http.StatusUnprocessableEntity, CodeUnprocessable, simErr)
		return
	}
	writeJSON(w, http.StatusOK, simResponse{
		Platform: res.Platform, Model: res.Model,
		Batch: res.Batch, InputLen: res.InputLen, OutputLen: res.OutputLen,
		TTFTMillis: res.Latency.TTFT * 1e3, TPOTMillis: res.Latency.TPOT * 1e3,
		E2ESeconds: res.Latency.E2E, TokensPerSecond: res.Throughput.E2E,
		PCIeFraction:    res.PCIeFraction(),
		LLCMPKI:         res.Counters.LLCMPKI,
		CoreUtilization: res.Counters.CoreUtilization,
	})
}

func (s *Server) handleAutotune(w http.ResponseWriter, r *http.Request) {
	var req AutotuneRequest
	if err := decodeBody(r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	if req.InputLen == 0 {
		req.InputLen = 128
	}
	if req.OutputLen == 0 {
		req.OutputLen = 32
	}
	if req.Top == 0 {
		req.Top = 5
	}
	if req.InputLen < 0 || req.OutputLen < 0 || req.Top < 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("in, out and top must be positive"))
		return
	}
	m, err := core.ModelByName(req.Model)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	var obj autotune.Objective
	switch req.Objective {
	case "", "e2e":
		obj = autotune.MinE2ELatency
	case "throughput":
		obj = autotune.MaxThroughput
	case "ttft":
		obj = autotune.MinTTFT
	default:
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("unknown objective %q (want e2e, throughput or ttft)", req.Objective))
		return
	}
	var cands []autotune.Candidate
	var tuneErr error
	gwErr := s.gw.Do(r.Context(), func(context.Context) error {
		cands, tuneErr = autotune.Tune(autotune.DefaultSpace(), autotune.Request{
			Model: m, InputLen: req.InputLen, OutputLen: req.OutputLen, Objective: obj,
		})
		return nil
	})
	if gwErr != nil {
		s.writeGatewayError(w, gwErr)
		return
	}
	if tuneErr != nil {
		writeError(w, http.StatusUnprocessableEntity, CodeUnprocessable, tuneErr)
		return
	}
	if req.Top < len(cands) {
		cands = cands[:req.Top]
	}
	resp := make([]tuneResponse, len(cands))
	for i, c := range cands {
		resp[i] = tuneResponse{
			Config: c.Setup.Name(), Cores: c.Setup.Cores, Batch: c.Batch,
			TTFTMillis:      c.Result.Latency.TTFT * 1e3,
			TPOTMillis:      c.Result.Latency.TPOT * 1e3,
			E2ESeconds:      c.Result.Latency.E2E,
			TokensPerSecond: c.Result.Throughput.E2E,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// tuneResponse is one autotune candidate in JSON form.
type tuneResponse struct {
	Config          string  `json:"config"`
	Cores           int     `json:"cores"`
	Batch           int     `json:"batch"`
	TTFTMillis      float64 `json:"ttft_ms"`
	TPOTMillis      float64 `json:"tpot_ms"`
	E2ESeconds      float64 `json:"e2e_s"`
	TokensPerSecond float64 `json:"tokens_per_second"`
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	admit := time.Now()
	var req GenerateRequest
	if err := decodeBody(r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	s.serveGeneration(w, r, admit, &req, generateShape{})
}

// clientID identifies the submitting tenant for per-client KV quotas: the
// X-Client-ID header when set, otherwise the remote host (so one machine
// is one tenant regardless of ephemeral ports).
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil && host != "" {
		return host
	}
	return r.RemoteAddr
}

// handleKV serves the memory governor's per-lane pool snapshot. Without a
// governor the endpoint reports the feature disabled (404) rather than an
// empty status, so dashboards can tell "no governance" from "no lanes".
func (s *Server) handleKV(w http.ResponseWriter, r *http.Request) {
	gov := s.gw.Governor()
	if gov == nil {
		writeError(w, http.StatusNotFound, CodeNotFound,
			fmt.Errorf("KV governance disabled (llmperfd -kv-govern=false, or no governor configured)"))
		return
	}
	writeJSON(w, http.StatusOK, gov.Snapshot())
}

// handleTraces serves retained request traces: ?id= returns one record,
// otherwise the most recent records (?limit=, default 20) newest first.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	t := s.gw.Tracer()
	if id := r.URL.Query().Get("id"); id != "" {
		rec, ok := t.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, CodeNotFound,
				fmt.Errorf("no retained trace %q (sampled out, expired from the ring, or never existed)", id))
			return
		}
		writeJSON(w, http.StatusOK, rec)
		return
	}
	limit, err := positiveParam(r, "limit", 20)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	recs := t.Recent(limit)
	if recs == nil {
		recs = []trace.Record{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"sample_rate": t.SampleRate(),
		"count":       len(recs),
		"traces":      recs,
	})
}

func (s *Server) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	type exp struct{ Key, Title string }
	var out []exp
	for _, e := range experiments.All() {
		out = append(out, exp{e.Key, e.Title})
	}
	writeJSON(w, http.StatusOK, out)
}

// tableJSON is the JSON form of an experiment table.
type tableJSON struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	e, err := experiments.ByKey(key)
	if err != nil {
		writeError(w, http.StatusNotFound, CodeNotFound, err)
		return
	}
	var tabs []experiments.Table
	var runErr error
	gwErr := s.gw.Do(r.Context(), func(context.Context) error {
		tabs, runErr = e.Run()
		return nil
	})
	if gwErr != nil {
		s.writeGatewayError(w, gwErr)
		return
	}
	if runErr != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, runErr)
		return
	}
	out := make([]tableJSON, len(tabs))
	for i, t := range tabs {
		out[i] = tableJSON{ID: t.ID, Title: t.Title, Columns: t.Columns, Rows: t.Rows}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleScorecard(w http.ResponseWriter, r *http.Request) {
	tab, _, err := experiments.RunScorecard()
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	writeJSON(w, http.StatusOK, tableJSON{ID: tab.ID, Title: tab.Title,
		Columns: tab.Columns, Rows: tab.Rows})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.reg.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.gw.Draining() {
		writeError(w, http.StatusServiceUnavailable, CodeDraining,
			fmt.Errorf("gateway draining"))
		return
	}
	if s.gw.Saturated() {
		// Sustained queue saturation: the admission queue has sat at
		// capacity past the saturation window, so new work only buys 429s.
		// Flip readiness just like KV pressure so load balancers route
		// around this instance until the backlog drains.
		writeError(w, http.StatusServiceUnavailable, CodeOverloadShed,
			fmt.Errorf("admission queue saturated past the saturation window"))
		return
	}
	if s.gw.MemoryPressure() {
		// Shedding above the KV high watermark: tell load balancers to
		// route elsewhere until the lane recovers below the low watermark.
		writeError(w, http.StatusServiceUnavailable, CodeMemoryPressure,
			fmt.Errorf("KV memory pressure: at least one lane above its high watermark"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleOverload serves the overload controller's snapshot: brownout
// level and active degradations, the adaptive concurrency limit, and
// per-class admission/shed counters. With overload control disabled the
// endpoint reports 404, matching how /v1/kv reports a missing governor.
func (s *Server) handleOverload(w http.ResponseWriter, r *http.Request) {
	st := s.gw.OverloadStatus()
	if !st.Enabled {
		writeError(w, http.StatusNotFound, CodeNotFound,
			fmt.Errorf("overload control disabled (llmperfd -overload=false, or no controller configured)"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}
