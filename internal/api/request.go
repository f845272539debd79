package api

// request.go holds the v1 request schemas with their two decoders — JSON
// body (POST) and query parameters (GET back-compat adapter) — and the
// shared field validation, so both forms of every endpoint run through
// identical checks.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"

	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gateway"
	"repro/internal/govern"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/overload"
	"repro/internal/prefixcache"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// maxBodyBytes bounds POST request bodies.
const maxBodyBytes = 1 << 20

// maxGenTokens bounds per-request sequence lengths on /v1/generate: the
// scheduler does work per token, so an unbounded length is an unbounded
// amount of lane time bought with one request.
const maxGenTokens = 1 << 17

// SimulateRequest is the body of POST /v1/simulate. Zero-valued numeric
// fields take the documented defaults.
type SimulateRequest struct {
	Platform  string `json:"platform"`
	Model     string `json:"model"`
	Batch     int    `json:"batch"`   // default 1
	InputLen  int    `json:"in"`      // default 128
	OutputLen int    `json:"out"`     // default 32
	Cores     int    `json:"cores"`   // CPU platforms; default per platform
	MemMode   string `json:"memmode"` // flat | cache | hbm-only | ddr
	Cluster   string `json:"cluster"` // quad | snc
}

// AutotuneRequest is the body of POST /v1/autotune.
type AutotuneRequest struct {
	Model     string `json:"model"`
	Objective string `json:"objective"` // e2e | throughput | ttft
	InputLen  int    `json:"in"`        // default 128
	OutputLen int    `json:"out"`       // default 32
	Top       int    `json:"top"`       // default 5
}

// GenerateRequest is the body of POST /v1/generate: one generation
// request served through the gateway's batching scheduler. Platform is a
// registry key, or "tiny-opt"/"tiny-llama" to execute on the real
// measured engine.
type GenerateRequest struct {
	Platform  string `json:"platform"`
	Model     string `json:"model"`
	InputLen  int    `json:"in"`  // default 128
	OutputLen int    `json:"out"` // default 32
	Cores     int    `json:"cores"`
	MemMode   string `json:"memmode"`
	Cluster   string `json:"cluster"`
	// Stream switches the response from one buffered JSON result to SSE
	// per-token delivery (Content-Type text/event-stream, data: chunks,
	// data: [DONE] termination).
	Stream bool `json:"stream"`
	// StreamOptions tunes streaming delivery, OpenAI-shaped. It is kept
	// raw here so malformed options produce the typed invalid_stream_param
	// error instead of a generic decode failure.
	StreamOptions json.RawMessage `json:"stream_options"`
	// PrefixGroup names the shared-prompt group this request belongs to
	// (a system prompt, an agent's tool preamble). Requests in one group
	// share the prefix cache for their first PrefixTokens tokens.
	PrefixGroup string `json:"prefix_group"`
	// PrefixTokens is how many leading tokens of the prompt the group
	// shares; 0 with a group set means the whole prompt.
	PrefixTokens int `json:"prefix_tokens"`
	// Cache tunes prefix caching per request ({"enabled": false} opts
	// out, "min_prefix_tokens" discards short matches). Kept raw so
	// malformed options produce the typed invalid_cache_param error.
	Cache json.RawMessage `json:"cache"`
	// Speculation tunes speculative decoding per request on lanes whose
	// server runs with a draft model ({"enabled": false} opts out,
	// "lookahead" caps the per-cycle proposal length below the server's
	// -spec-k). Kept raw so malformed options produce the typed
	// invalid_spec_param error.
	Speculation json.RawMessage `json:"speculation"`
	// Priority is the request's SLO class (interactive | standard |
	// batch; default standard). It orders queue admission and selects
	// shedding victims under overload: batch work is shed before
	// interactive ever sees a 503. Equivalent to the X-SLO-Class header;
	// when both are present they must agree.
	Priority string `json:"priority"`

	// prefix carries pre-built cache segments from adapter routes (chat
	// messages, completion prompt chunks); when nil, prefixSegments
	// derives segments from PrefixGroup/PrefixTokens.
	prefix []prefixcache.Segment
}

// streamOptions is the decoded form of the stream_options body field.
type streamOptions struct {
	// IncludeUsage appends a final usage chunk (token counts) before
	// [DONE] on the OpenAI-shaped endpoints.
	IncludeUsage bool `json:"include_usage"`
}

// errInvalidStreamParam marks malformed streaming options; handlers map
// it to HTTP 400 with the typed invalid_stream_param code.
var errInvalidStreamParam = errors.New("invalid stream parameter")

// parseStreamOptions validates the stream/stream_options pair.
// stream_options without "stream": true is rejected — silently ignoring
// it would surprise clients expecting a usage chunk.
func parseStreamOptions(stream bool, raw json.RawMessage) (streamOptions, error) {
	var opts streamOptions
	if len(raw) == 0 || string(raw) == "null" {
		return opts, nil
	}
	if !stream {
		return opts, fmt.Errorf(`%w: stream_options requires "stream": true`, errInvalidStreamParam)
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&opts); err != nil {
		return opts, fmt.Errorf("%w: stream_options: %v", errInvalidStreamParam, err)
	}
	return opts, nil
}

// cacheOptions is the decoded form of the cache body field.
type cacheOptions struct {
	// Enabled opts the request out of the prefix cache when false: no
	// lookup, no donation. Absent means enabled.
	Enabled *bool `json:"enabled"`
	// MinPrefixTokens discards cache matches shorter than this many
	// tokens — chats that want a hit only when the whole history matched.
	MinPrefixTokens int `json:"min_prefix_tokens"`
}

// disabled reports whether the options opt the request out.
func (c cacheOptions) disabled() bool { return c.Enabled != nil && !*c.Enabled }

// errInvalidCacheParam marks malformed cache options; handlers map it to
// HTTP 400 with the typed invalid_cache_param code.
var errInvalidCacheParam = errors.New("invalid cache parameter")

// parseCacheOptions strictly validates the cache body field: unknown
// fields and wrong types are rejected rather than silently ignored, so a
// client that misspells "enabled" cannot believe it opted out.
func parseCacheOptions(raw json.RawMessage) (cacheOptions, error) {
	var opts cacheOptions
	if len(raw) == 0 || string(raw) == "null" {
		return opts, nil
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&opts); err != nil {
		return opts, fmt.Errorf("%w: cache: %v", errInvalidCacheParam, err)
	}
	if opts.MinPrefixTokens < 0 {
		return opts, fmt.Errorf("%w: cache.min_prefix_tokens must be non-negative, got %d",
			errInvalidCacheParam, opts.MinPrefixTokens)
	}
	return opts, nil
}

// specOptions is the decoded form of the speculation body field.
type specOptions struct {
	// Enabled opts the request out of speculative decoding when false:
	// its sequences decode one token per iteration even on a lane with a
	// draft. Absent means enabled.
	Enabled *bool `json:"enabled"`
	// Lookahead caps this request's per-cycle draft proposal length below
	// the server's configured maximum; 0 means no per-request cap.
	Lookahead int `json:"lookahead"`
}

// disabled reports whether the options opt the request out.
func (s specOptions) disabled() bool { return s.Enabled != nil && !*s.Enabled }

// errInvalidSpecParam marks malformed speculation options; handlers map
// it to HTTP 400 with the typed invalid_spec_param code.
var errInvalidSpecParam = errors.New("invalid speculation parameter")

// parseSpecOptions strictly validates the speculation body field, with
// the same posture as parseCacheOptions: unknown fields and wrong types
// are rejected so a client that misspells "enabled" cannot believe it
// opted out.
func parseSpecOptions(raw json.RawMessage) (specOptions, error) {
	var opts specOptions
	if len(raw) == 0 || string(raw) == "null" {
		return opts, nil
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&opts); err != nil {
		return opts, fmt.Errorf("%w: speculation: %v", errInvalidSpecParam, err)
	}
	if opts.Lookahead < 0 {
		return opts, fmt.Errorf("%w: speculation.lookahead must be non-negative, got %d",
			errInvalidSpecParam, opts.Lookahead)
	}
	return opts, nil
}

// errInvalidSLOClass marks an unknown priority / X-SLO-Class value or a
// body-header disagreement; handlers map it to HTTP 400 with the typed
// invalid_slo_class code.
var errInvalidSLOClass = errors.New("invalid SLO class")

// resolveClass validates the request's SLO class from the priority body
// field and the X-SLO-Class header at the service boundary. Either
// source alone sets the class; both together must agree — silently
// preferring one would let a proxy-injected header override what the
// client asked for (or vice versa) without anyone noticing. Unknown
// values are a typed 400, never a silent downgrade to standard. An
// empty result means the caller expressed no preference (the gateway
// defaults it to standard).
func resolveClass(bodyPriority, header string) (string, error) {
	for _, v := range []string{bodyPriority, header} {
		if v == "" {
			continue
		}
		if _, err := overload.ParseClass(v); err != nil {
			return "", fmt.Errorf("%w: %v", errInvalidSLOClass, err)
		}
	}
	if bodyPriority != "" && header != "" && bodyPriority != header {
		return "", fmt.Errorf("%w: priority %q disagrees with X-SLO-Class %q",
			errInvalidSLOClass, bodyPriority, header)
	}
	if bodyPriority != "" {
		return bodyPriority, nil
	}
	return header, nil
}

// errUnsupportedMediaType marks POST bodies sent without a JSON
// Content-Type; writeBodyError maps it to HTTP 415.
var errUnsupportedMediaType = errors.New("unsupported media type")

// decodeBody strictly parses a JSON body into dst. The Content-Type must
// be application/json (charset parameters are accepted).
func decodeBody(r *http.Request, dst any) error {
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err != nil || mt != "application/json" {
		return fmt.Errorf("%w: Content-Type %q (want application/json)",
			errUnsupportedMediaType, ct)
	}
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("request body: %w", err)
	}
	if dec.More() {
		return errors.New("request body: trailing data after JSON object")
	}
	return nil
}

// positiveParam parses an optional positive integer query parameter.
func positiveParam(r *http.Request, name string, def int) (int, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("parameter %s: %w", name, err)
	}
	if v < 1 {
		return 0, fmt.Errorf("parameter %s must be positive, got %d", name, v)
	}
	return v, nil
}

// normalize validates the request and fills defaults; it returns the
// resolved model and platform entry.
func (req *SimulateRequest) normalize() (model.Config, hw.PlatformEntry, error) {
	if req.Batch == 0 {
		req.Batch = 1
	}
	if req.InputLen == 0 {
		req.InputLen = 128
	}
	if req.OutputLen == 0 {
		req.OutputLen = 32
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"batch", req.Batch}, {"in", req.InputLen}, {"out", req.OutputLen}, {"cores", req.Cores}} {
		if f.v < 0 {
			return model.Config{}, hw.PlatformEntry{}, fmt.Errorf("field %s must be positive, got %d", f.name, f.v)
		}
	}
	m, err := core.ModelByName(req.Model)
	if err != nil {
		return model.Config{}, hw.PlatformEntry{}, err
	}
	entry, err := hw.PlatformByKey(req.Platform)
	if err != nil {
		return model.Config{}, hw.PlatformEntry{}, err
	}
	if entry.Kind == hw.GPUPlatform && (req.Cores != 0 || req.MemMode != "" || req.Cluster != "") {
		return model.Config{}, hw.PlatformEntry{}, fmt.Errorf("cores/memmode/cluster apply only to CPU platforms, not %q", req.Platform)
	}
	return m, entry, nil
}

// cpuSetup builds the memsim configuration for a CPU platform entry.
func cpuSetup(entry hw.PlatformEntry, cores int, memMode, cluster string) (memsim.Config, error) {
	setup := core.SPRQuadFlat(0)
	if entry.Key == "icl" {
		setup = core.ICLBaseline()
	}
	if cores > 0 {
		setup.Cores = cores
	}
	switch memMode {
	case "", "flat":
	case "cache":
		setup.Mem = memsim.Cache
	case "hbm-only":
		setup.Mem = memsim.HBMOnly
	case "ddr":
		setup.Mem = memsim.DDROnly
	default:
		return setup, fmt.Errorf("unknown memmode %q (want flat, cache, hbm-only or ddr)", memMode)
	}
	switch cluster {
	case "", "quad":
	case "snc":
		setup.Cluster = memsim.SNC4
	default:
		return setup, fmt.Errorf("unknown cluster %q (want quad or snc)", cluster)
	}
	return setup, nil
}

// laneKey canonicalizes the fields that determine batching compatibility:
// requests with equal keys may share a gateway lane.
func (req GenerateRequest) laneKey() string {
	return strings.Join([]string{req.Platform, req.Model,
		strconv.Itoa(req.Cores), req.MemMode, req.Cluster}, "|")
}

// normalize validates a generate request and fills defaults.
func (req *GenerateRequest) normalize() error {
	if req.InputLen == 0 {
		req.InputLen = 128
	}
	if req.OutputLen == 0 {
		req.OutputLen = 32
	}
	if req.InputLen < 0 || req.OutputLen < 0 || req.Cores < 0 {
		return fmt.Errorf("in, out and cores must be positive")
	}
	if req.InputLen > maxGenTokens || req.OutputLen > maxGenTokens {
		return fmt.Errorf("in and out must be at most %d tokens", maxGenTokens)
	}
	if req.PrefixTokens < 0 {
		return fmt.Errorf("prefix_tokens must be non-negative, got %d", req.PrefixTokens)
	}
	if req.PrefixTokens > req.InputLen {
		return fmt.Errorf("prefix_tokens (%d) exceeds the prompt length in (%d)",
			req.PrefixTokens, req.InputLen)
	}
	if req.PrefixTokens > 0 && req.PrefixGroup == "" {
		return fmt.Errorf("prefix_tokens requires prefix_group")
	}
	if strings.HasPrefix(req.Platform, "tiny-") {
		fam := strings.TrimPrefix(req.Platform, "tiny-")
		if fam != "opt" && fam != "llama" {
			return fmt.Errorf("%w: engine platform %q (want tiny-opt or tiny-llama)",
				hw.ErrUnknownPlatform, req.Platform)
		}
		return nil
	}
	entry, err := hw.PlatformByKey(req.Platform)
	if err != nil {
		return err
	}
	if _, err := core.ModelByName(req.Model); err != nil {
		return err
	}
	if entry.Kind == hw.CPUPlatform {
		if _, err := cpuSetup(entry, req.Cores, req.MemMode, req.Cluster); err != nil {
			return err
		}
	} else if req.Cores != 0 || req.MemMode != "" || req.Cluster != "" {
		return fmt.Errorf("cores/memmode/cluster apply only to CPU platforms, not %q", req.Platform)
	}
	return nil
}

// prefixGroupChunkTokens is the granularity at which a prefix_group's
// shared span is segmented. Chunking matters for growing prefixes: a
// multi-turn session whose shared context lengthens each turn must
// extend the previous turn's key chain rather than hash differently from
// token zero, and fixed-size chunks keep every completed chunk's segment
// identity stable as prefix_tokens grows.
const prefixGroupChunkTokens = 64

// prefixSegments describes the request's prompt for the prefix cache:
// adapter-built segments when present (chat messages, prompt chunks),
// otherwise the prefix_group shared span in fixed-size chunks plus a
// private per-request tail. Requests with no group and no adapter
// segments return nil and bypass the cache entirely.
func (req *GenerateRequest) prefixSegments() []prefixcache.Segment {
	if req.prefix != nil {
		return req.prefix
	}
	if req.PrefixGroup == "" {
		return nil
	}
	shared := req.PrefixTokens
	if shared == 0 || shared > req.InputLen {
		shared = req.InputLen
	}
	var segs []prefixcache.Segment
	for i := 0; i*prefixGroupChunkTokens < shared; i++ {
		n := shared - i*prefixGroupChunkTokens
		if n > prefixGroupChunkTokens {
			n = prefixGroupChunkTokens
		}
		segs = append(segs, prefixcache.Segment{
			ID:     fmt.Sprintf("group:%s#%d", req.PrefixGroup, i),
			Tokens: n,
		})
	}
	if tail := req.InputLen - shared; tail > 0 {
		segs = append(segs, prefixcache.Segment{ID: "tail", Tokens: tail, Private: true})
	}
	return segs
}

// lanePool is the single persistent worker pool shared by every tiny-*
// lane engine: gateway lanes run concurrently, and giving each engine a
// private pool would oversubscribe the cores the paper's thread-scaling
// curves show matter (one worker set per socket, not per model).
var (
	lanePool     *kernels.Pool
	lanePoolOnce sync.Once
)

func sharedLanePool() *kernels.Pool {
	lanePoolOnce.Do(func() { lanePool = kernels.NewPool(0) })
	return lanePool
}

// LaneResolver builds serve cost models from canonical lane keys. It is
// the gateway's bridge back into the simulation substrates: analytic
// platform models for the paper's evaluation hardware, and the real
// functional engine for tiny-* lanes.
func LaneResolver() gateway.Resolver {
	return func(lane string) (serve.CostModel, error) {
		parts := strings.Split(lane, "|")
		if len(parts) != 5 {
			return nil, fmt.Errorf("api: malformed lane key %q", lane)
		}
		platform, modelName, coresStr, memMode, cluster := parts[0], parts[1], parts[2], parts[3], parts[4]
		cores, err := strconv.Atoi(coresStr)
		if err != nil {
			return nil, fmt.Errorf("api: malformed lane cores in %q", lane)
		}
		if strings.HasPrefix(platform, "tiny-") {
			eng, err := core.TinyEngineWith(strings.TrimPrefix(platform, "tiny-"),
				engine.Options{Kernel: engine.KernelTileBF16Parallel, Pool: sharedLanePool()})
			if err != nil {
				return nil, err
			}
			return serve.NewEngineCost(eng), nil
		}
		m, err := core.ModelByName(modelName)
		if err != nil {
			return nil, err
		}
		entry, err := hw.PlatformByKey(platform)
		if err != nil {
			return nil, err
		}
		if entry.Kind == hw.CPUPlatform {
			setup, err := cpuSetup(entry, cores, memMode, cluster)
			if err != nil {
				return nil, err
			}
			return serve.NewCPUCost(setup, m), nil
		}
		return serve.NewGPUCost(*entry.GPU, m), nil
	}
}

// SpecLaneResolver is LaneResolver with draft-model speculation: lanes
// that can price a draft return a serve.SpecCostModel, which the gateway
// detects and upgrades to draft-assisted decode cycles. Tiny-* lanes pair
// the measured target engine with a one-layer draft of the same family
// (draftModel is ignored — the engines must share a vocabulary); analytic
// CPU lanes price the named registry draft model on the lane's platform.
// GPU lanes fall back to plain pricing — the paper's CPU-side speculation
// argument doesn't transfer, and the GPU model has no draft calibration.
func SpecLaneResolver(draftModel string) gateway.Resolver {
	base := LaneResolver()
	return func(lane string) (serve.CostModel, error) {
		parts := strings.Split(lane, "|")
		if len(parts) != 5 {
			return nil, fmt.Errorf("api: malformed lane key %q", lane)
		}
		platform, modelName, coresStr, memMode, cluster := parts[0], parts[1], parts[2], parts[3], parts[4]
		if strings.HasPrefix(platform, "tiny-") {
			fam := strings.TrimPrefix(platform, "tiny-")
			opts := engine.Options{Kernel: engine.KernelTileBF16Parallel, Pool: sharedLanePool()}
			target, err := core.TinyEngineWith(fam, opts)
			if err != nil {
				return nil, err
			}
			draft, err := core.TinyDraftEngineWith(fam, opts)
			if err != nil {
				return nil, err
			}
			return serve.NewSpecEngineCost(target, draft), nil
		}
		m, err := core.ModelByName(modelName)
		if err != nil {
			return nil, err
		}
		entry, err := hw.PlatformByKey(platform)
		if err != nil {
			return nil, err
		}
		if entry.Kind != hw.CPUPlatform {
			return base(lane)
		}
		dm, err := core.ModelByName(draftModel)
		if err != nil {
			return nil, fmt.Errorf("api: draft model: %w", err)
		}
		cores, err := strconv.Atoi(coresStr)
		if err != nil {
			return nil, fmt.Errorf("api: malformed lane cores in %q", lane)
		}
		setup, err := cpuSetup(entry, cores, memMode, cluster)
		if err != nil {
			return nil, err
		}
		return serve.NewSpecCPUCost(setup, m, dm), nil
	}
}

// PoolSpecResolver sizes per-lane KV pools for the memory governor from
// the lane's platform entry, the way the paper budgets KV capacity
// (§III, Fig 7): the platform's memory capacity minus the resident
// weights, with 10% headroom for activations and runtime overhead. CPU
// platforms prefer the HBM tier when the weights fit inside it (weights
// and cache co-resident in HBM, the paper's flat-mode sweet spot) and
// fall back to HBM+DDR otherwise; GPUs budget device memory minus the
// kernel workspace. Tiny engine lanes get a small synthetic budget —
// their interest is functional, not capacity. overrideBytes, when
// positive, replaces the derived budget for every lane (llmperfd
// -kv-budget-mb, the memdemo knob).
func PoolSpecResolver(blockSize int, overrideBytes int64) govern.SpecResolver {
	if blockSize <= 0 {
		blockSize = govern.DefaultBlockSize
	}
	return func(lane string) (govern.PoolSpec, error) {
		parts := strings.Split(lane, "|")
		if len(parts) != 5 {
			return govern.PoolSpec{}, fmt.Errorf("api: malformed lane key %q", lane)
		}
		platform, modelName := parts[0], parts[1]
		spec := govern.PoolSpec{DType: tensor.BF16, BlockSize: blockSize}
		if strings.HasPrefix(platform, "tiny-") {
			fam := model.OPT
			if strings.TrimPrefix(platform, "tiny-") == "llama" {
				fam = model.LLaMA2
			}
			spec.Model = model.Tiny(fam)
			spec.BudgetBytes = 64 << 20
		} else {
			m, err := core.ModelByName(modelName)
			if err != nil {
				return govern.PoolSpec{}, err
			}
			entry, err := hw.PlatformByKey(platform)
			if err != nil {
				return govern.PoolSpec{}, err
			}
			spec.Model = m
			weights := m.WeightBytes(spec.DType)
			var capacity int64
			if entry.Kind == hw.CPUPlatform {
				c := entry.CPU
				hbm := int64(c.HBM.CapacityGB * float64(c.Sockets) * 1e9)
				ddr := int64(c.DDR.CapacityGB * float64(c.Sockets) * 1e9)
				if hbm > weights {
					capacity = hbm // weights + KV co-resident in the HBM tier
				} else {
					capacity = hbm + ddr
				}
			} else {
				g := entry.GPU
				capacity = int64((g.MemGB - g.WorkspaceGB) * 1e9)
			}
			spec.BudgetBytes = int64(0.9 * float64(capacity-weights))
		}
		if overrideBytes > 0 {
			spec.BudgetBytes = overrideBytes
		}
		// Never size a pool below a workable floor: a lane that cannot hold
		// a handful of sequences thrashes instead of serving.
		blockBytes := spec.Model.KVBytesPerTokenPerLayer(spec.DType) *
			int64(spec.Model.Layers) * int64(blockSize)
		if minBudget := 64 * blockBytes; spec.BudgetBytes < minBudget {
			spec.BudgetBytes = minBudget
		}
		return spec, nil
	}
}

// FallbackResolver builds degraded-mode cost models for lanes whose
// primary pricing path fails. Engine-timed lanes (tiny-*) fall back to a
// pure analytic FLOPs model over the same tiny shape — cheap, cannot
// panic or stall, and keeps the lane serving with degraded accuracy while
// the breaker is open. Analytic lanes get no fallback: their primary is
// already the model of last resort.
func FallbackResolver() gateway.Resolver {
	return func(lane string) (serve.CostModel, error) {
		parts := strings.Split(lane, "|")
		if len(parts) != 5 || !strings.HasPrefix(parts[0], "tiny-") {
			return nil, nil
		}
		fam := model.OPT
		if strings.TrimPrefix(parts[0], "tiny-") == "llama" {
			fam = model.LLaMA2
		}
		return serve.NewAnalyticFallback(model.Tiny(fam), 0), nil
	}
}
