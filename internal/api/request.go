package api

// request.go holds the v1 request schemas, their strict decoding and
// shared validation, and the lane spec: the platform block every
// simulation and generation request carries, which names the gateway
// lane a generation request batches on and the cost model and KV pool
// that lane gets.

import (
	"bytes"
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

// platformSpec is the platform block of every simulation and generation
// request, and the parsed form of a lane key: generation requests whose
// canonical specs are equal share a gateway lane.
type platformSpec struct {
	Platform string `json:"platform"`
	Model    string `json:"model"`
	Cores    int    `json:"cores"`   // CPU platforms; 0 = the paper's configuration
	MemMode  string `json:"memmode"` // CPU platforms; a memsim.MemMode name
	Cluster  string `json:"cluster"` // CPU platforms; a memsim.ClusterMode name
}

// key renders the spec as a lane key: platform|model|cores|memmode|cluster.
func (s platformSpec) key() string {
	return s.Platform + "|" + s.Model + "|" + strconv.Itoa(s.Cores) + "|" + s.MemMode + "|" + s.Cluster
}

// errMalformedLane is what every resolver returns for a key that
// parseLane cannot read.
var errMalformedLane = errors.New("api: malformed lane key")

// parseLane is the inverse of platformSpec.key.
func parseLane(key string) (platformSpec, error) {
	parts := strings.Split(key, "|")
	if len(parts) != 5 {
		return platformSpec{}, fmt.Errorf("%w %q", errMalformedLane, key)
	}
	cores, err := strconv.Atoi(parts[2])
	if err != nil {
		return platformSpec{}, fmt.Errorf("%w %q", errMalformedLane, key)
	}
	return platformSpec{parts[0], parts[1], cores, parts[3], parts[4]}, nil
}

// lane is a validated platformSpec: what a gateway lane runs on.
type lane struct {
	tiny   bool         // a tiny-* lane, executed on the real engine
	target core.Target  // analytic lanes
	model  model.Config // the preset, or the tiny family's shape
}

// target resolves an analytic spec's platform configuration and model.
func (s platformSpec) target() (core.Target, model.Config, error) {
	t, err := core.Resolve(s.Platform, s.Cores, s.MemMode, s.Cluster)
	if err != nil {
		return core.Target{}, model.Config{}, err
	}
	m, err := core.ModelByName(s.Model)
	return t, m, err
}

// resolve validates the spec as a lane: a tiny-* engine family, which
// takes no CPU knobs and ignores the model name, or an analytic target.
func (s platformSpec) resolve() (lane, error) {
	fam, ok := strings.CutPrefix(s.Platform, "tiny-")
	if !ok {
		t, m, err := s.target()
		return lane{target: t, model: m}, err
	}
	var f model.Family
	switch fam {
	case "opt":
		f = model.OPT
	case "llama":
		f = model.LLaMA2
	default:
		return lane{}, fmt.Errorf("%w: engine platform %q (want tiny-opt or tiny-llama)",
			hw.ErrUnknownPlatform, s.Platform)
	}
	if s.Cores != 0 || s.MemMode != "" || s.Cluster != "" {
		return lane{}, fmt.Errorf("cores/memmode/cluster apply only to CPU platforms, not %q", s.Platform)
	}
	return lane{tiny: true, model: model.Tiny(f)}, nil
}

// resolveLane parses and validates a lane key.
func resolveLane(key string) (lane, error) {
	s, err := parseLane(key)
	if err != nil {
		return lane{}, err
	}
	return s.resolve()
}

// SimulateRequest is the body of POST /v1/simulate. Zero-valued numeric
// fields take the documented defaults.
type SimulateRequest struct {
	platformSpec
	Batch     int `json:"batch"` // default 1
	InputLen  int `json:"in"`    // default 128
	OutputLen int `json:"out"`   // default 32
}

// GenerateRequest is the body of POST /v1/generate: one generation
// request served through the gateway's batching scheduler. Platform is a
// registry key, or "tiny-opt"/"tiny-llama" to execute on the real
// measured engine.
type GenerateRequest struct {
	platformSpec
	InputLen  int `json:"in"`  // default 128
	OutputLen int `json:"out"` // default 32
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

// Malformed per-request options; handlers map each to HTTP 400 with its
// typed code (invalid_stream_param, invalid_cache_param).
var (
	errInvalidStreamParam = errors.New("invalid stream parameter")
	errInvalidCacheParam  = errors.New("invalid cache parameter")
)

// absent reports an option field left out or sent as null.
func absent(raw json.RawMessage) bool { return len(raw) == 0 || string(raw) == "null" }

// decodeOption strictly decodes the option object raw into dst: unknown
// fields and wrong types are rejected rather than silently ignored, so a
// client that misspells "enabled" cannot believe it opted out. An absent
// field leaves dst zero.
func decodeOption(raw json.RawMessage, field string, invalid error, dst any) error {
	if absent(raw) {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("%w: %s: %v", invalid, field, err)
	}
	return nil
}

// parseStreamOptions validates the stream/stream_options pair.
// stream_options without "stream": true is rejected — silently ignoring
// it would surprise clients expecting a usage chunk.
func parseStreamOptions(stream bool, raw json.RawMessage) (opts streamOptions, err error) {
	if !absent(raw) && !stream {
		return opts, fmt.Errorf(`%w: stream_options requires "stream": true`, errInvalidStreamParam)
	}
	err = decodeOption(raw, "stream_options", errInvalidStreamParam, &opts)
	return opts, err
}

// parseCacheOptions validates the cache body field.
func parseCacheOptions(raw json.RawMessage) (opts cacheOptions, err error) {
	err = decodeOption(raw, "cache", errInvalidCacheParam, &opts)
	if err == nil && opts.MinPrefixTokens < 0 {
		err = fmt.Errorf("%w: cache.min_prefix_tokens must be non-negative, got %d",
			errInvalidCacheParam, opts.MinPrefixTokens)
	}
	return opts, err
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
// resolved platform configuration and model.
func (req *SimulateRequest) normalize() (core.Target, model.Config, error) {
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
			return core.Target{}, model.Config{}, fmt.Errorf("field %s must be positive, got %d", f.name, f.v)
		}
	}
	return req.target()
}

// normalize validates a generate request, fills defaults and returns its
// canonical lane key. A tiny-* key leaves the model out: the engine
// ignores it, so every surface shares the family's one lane.
func (req *GenerateRequest) normalize() (string, error) {
	if req.InputLen == 0 {
		req.InputLen = 128
	}
	if req.OutputLen == 0 {
		req.OutputLen = 32
	}
	if req.InputLen < 0 || req.OutputLen < 0 || req.Cores < 0 {
		return "", fmt.Errorf("in, out and cores must be positive")
	}
	if req.InputLen > maxGenTokens || req.OutputLen > maxGenTokens {
		return "", fmt.Errorf("in and out must be at most %d tokens", maxGenTokens)
	}
	if req.PrefixTokens < 0 {
		return "", fmt.Errorf("prefix_tokens must be non-negative, got %d", req.PrefixTokens)
	}
	if req.PrefixTokens > req.InputLen {
		return "", fmt.Errorf("prefix_tokens (%d) exceeds the prompt length in (%d)",
			req.PrefixTokens, req.InputLen)
	}
	if req.PrefixTokens > 0 && req.PrefixGroup == "" {
		return "", fmt.Errorf("prefix_tokens requires prefix_group")
	}
	l, err := req.resolve()
	if err != nil {
		return "", err
	}
	spec := req.platformSpec
	if l.tiny {
		spec.Model = ""
	}
	return spec.key(), nil
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

// sharedLanePool is the single persistent worker pool shared by every tiny-*
// lane engine: gateway lanes run concurrently, and giving each engine a
// private pool would oversubscribe the cores the paper's thread-scaling
// curves show matter (one worker set per socket, not per model).
var sharedLanePool = sync.OnceValue(func() *kernels.Pool { return kernels.NewPool(0) })

// LaneResolver builds serve cost models from canonical lane keys. It is
// the gateway's bridge back into the simulation substrates: analytic
// platform models for the paper's evaluation hardware, and the real
// functional engine for tiny-* lanes.
func LaneResolver() gateway.Resolver {
	return func(key string) (serve.CostModel, error) {
		l, err := resolveLane(key)
		if err != nil {
			return nil, err
		}
		switch {
		case l.tiny:
			e, err := core.TinyEngineWith(l.model.Family,
				engine.Options{Kernel: engine.KernelTileBF16Parallel, Pool: sharedLanePool()})
			if err != nil {
				return nil, err
			}
			return serve.NewEngineCost(e), nil
		case l.target.Entry.Kind == hw.GPUPlatform:
			return serve.NewGPUCost(*l.target.Entry.GPU, l.model), nil
		}
		return serve.NewCPUCost(l.target.Setup, l.model), nil
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
	return func(key string) (govern.PoolSpec, error) {
		l, err := resolveLane(key)
		if err != nil {
			return govern.PoolSpec{}, err
		}
		spec := govern.PoolSpec{Model: l.model, DType: tensor.BF16, BlockSize: blockSize, BudgetBytes: 64 << 20}
		if !l.tiny {
			weights := l.model.WeightBytes(spec.DType)
			var capacity int64
			if c := l.target.Entry.CPU; c != nil {
				hbm := int64(c.HBM.CapacityGB * float64(c.Sockets) * 1e9)
				ddr := int64(c.DDR.CapacityGB * float64(c.Sockets) * 1e9)
				if hbm > weights {
					capacity = hbm // weights + KV co-resident in the HBM tier
				} else {
					capacity = hbm + ddr
				}
			} else {
				g := l.target.Entry.GPU
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
	return func(key string) (serve.CostModel, error) {
		l, err := resolveLane(key)
		if err != nil || !l.tiny {
			return nil, err
		}
		return serve.NewAnalyticFallback(l.model, 0), nil
	}
}
