package api

// wire_golden_test.go pins the bytes the API puts on the wire: status,
// headers and body of every generation surface (buffered, streamed,
// streamed with include_usage) on an analytic lane and on a tiny-* engine
// lane, a prefix-cache hit, cluster attribution, the brownout header,
// every error code with its Retry-After / Allow headers,
// the mid-stream error envelope, the /v1/simulate and /v1/platforms
// bodies, and GET /v1/debug/state after a group's traffic.
// Only volatile values are masked (see mask);
// modeled values on analytic lanes stay exact. `make wire-golden`
// rewrites testdata/wire.txt (on purpose only).

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/gateway"
	"repro/internal/govern"
	"repro/internal/overload"
)

var update = flag.Bool("update", false, "rewrite testdata/wire.txt from the current responses")

// exchange is one recorded request. Bodies are sent as application/json
// unless header sets another Content-Type.
type exchange struct {
	name   string
	method string // default POST
	path   string
	body   string
	header []string // "Key: value"
	engine bool     // served by a tiny-* lane: engine-timed values are masked
}

// wireGroup is a run of exchanges against one fresh backend, in order.
type wireGroup struct {
	name    string
	backend func(t *testing.T) Backend
	calls   []exchange
}

// newGateway returns a gateway on resolve, shut down when the test ends.
func newGateway(t *testing.T, cfg gateway.Config, resolve gateway.Resolver) *gateway.Gateway {
	gw := gateway.New(cfg, resolve)
	t.Cleanup(func() { _ = gw.Shutdown(context.Background()) })
	return gw
}

// failWith is a backend whose every generation fails with err, after
// streaming tokens tokens.
func failWith(err error, tokens int) func(t *testing.T) Backend {
	return func(t *testing.T) Backend {
		gw := newGateway(t, gateway.Config{}, stubResolver(stubCost{}))
		return scriptedBackend{gw, func(sink gateway.TokenSink) (gateway.Result, error) {
			for i := 0; i < tokens && sink != nil; i++ {
				sink(gateway.TokenEvent{Index: i, Batch: 1, VTime: 0.01 * float64(i+1)})
			}
			return gateway.Result{}, err
		}}
	}
}

const (
	genBody    = `{"platform":"spr","model":"OPT-13B","in":64,"out":4`
	chatBody   = `{"model":"OPT-13B","messages":[{"role":"user","content":"hi"}],"max_tokens":4`
	complBody  = `{"model":"OPT-13B","prompt":"hello","max_tokens":4`
	withStream = `,"stream":true`
	withUsage  = `,"stream":true,"stream_options":{"include_usage":true}`
)

// surfaces are the three generation endpoints, each buffered, streamed
// and streamed with include_usage, on the request body open (missing its
// closing brace) plus extra fields.
func surfaces(prefix, gen, chat, compl string, engine bool) []exchange {
	var out []exchange
	for _, s := range []struct{ name, path, open string }{
		{"generate", "/v1/generate", gen},
		{"chat", "/v1/chat/completions", chat},
		{"completions", "/v1/completions", compl},
	} {
		for _, mode := range []struct{ name, extra string }{
			{"buffered", ""}, {"stream", withStream}, {"stream+usage", withUsage},
		} {
			out = append(out, exchange{name: prefix + s.name + " " + mode.name,
				path: s.path, body: s.open + mode.extra + "}", engine: engine})
		}
	}
	return out
}

func post(name, path, body string, header ...string) exchange {
	return exchange{name: name, path: path, body: body, header: header}
}

// state reads the operator state document.
var state = exchange{name: "state", method: http.MethodGet, path: "/v1/debug/state"}

// browned returns a gateway whose overload ladder stands at level: a
// load spike climbs it one rung per sample, then the spike is disarmed
// and the hour-long StepDown holds the rung for the test.
func browned(t *testing.T, level int) *gateway.Gateway {
	inj := faults.New(1)
	if err := inj.Arm(faults.Rule{Class: faults.LoadSpike, Site: "overload", Fraction: 1}); err != nil {
		t.Fatal(err)
	}
	gw := newGateway(t, gateway.Config{Injector: inj,
		Overload: &overload.Config{StepUp: time.Nanosecond, StepDown: time.Hour}}, stubResolver(stubCost{}))
	for gw.BrownoutLevel() < level {
	}
	inj.Disarm()
	return gw
}

func wireGroups() []wireGroup {
	defaultBackend := func(t *testing.T) Backend {
		return newGateway(t, gateway.Config{}, LaneResolver())
	}
	analytic := surfaces("", genBody, chatBody, complBody, false)
	analytic = append(analytic,
		post("generate h100", "/v1/generate", `{"platform":"h100","model":"OPT-13B","in":64,"out":4}`),
		post("generate gh200", "/v1/generate", `{"platform":"gh200","model":"OPT-66B","in":64,"out":2}`),
		post("generate icl", "/v1/generate", `{"platform":"icl","model":"OPT-13B","in":64,"out":4}`),
		post("generate icl snc", "/v1/generate", `{"platform":"icl","model":"OPT-13B","in":64,"out":2,"cluster":"snc"}`),
		post("generate icl flat", "/v1/generate", `{"platform":"icl","model":"OPT-13B","in":64,"out":2,"memmode":"flat"}`),
		post("generate knobs", "/v1/generate",
			`{"platform":"spr","model":"LLaMA2-13B","in":32,"out":2,"cores":24,"memmode":"cache","cluster":"snc"}`),
		post("generate ddr", "/v1/generate", `{"platform":"spr","model":"OPT-13B","in":32,"out":2,"memmode":"ddr"}`),
		post("generate prefix group", "/v1/generate",
			`{"platform":"spr","model":"OPT-13B","in":80,"out":2,"prefix_group":"g","prefix_tokens":64}`),
		post("generate priority", "/v1/generate", genBody+`,"priority":"interactive"}`, "X-SLO-Class: interactive"),
		post("generate deadline", "/v1/generate", genBody+`}`, "X-Request-Deadline: 5s"),
		post("generate opt-outs", "/v1/generate", genBody+`,"cache":{"enabled":false,"min_prefix_tokens":0}}`),
		post("chat system+user", "/v1/chat/completions",
			`{"model":"OPT-13B","platform":"spr","max_completion_tokens":3,"max_tokens":9,"temperature":0.7,"top_p":"high","seed":[1],"messages":[{"role":"system","content":"be brief"},{"role":"user","content":"hi"}]}`),
		post("completions icl", "/v1/completions", `{"model":"OPT-13B","prompt":"hello","max_tokens":2,"platform":"icl"}`),

		// Validation on /v1/generate.
		post("generate unknown platform", "/v1/generate", `{"platform":"tpu","model":"OPT-13B"}`),
		post("generate unknown model", "/v1/generate", `{"platform":"spr","model":"GPT-5"}`),
		post("generate unknown engine", "/v1/generate", `{"platform":"tiny-weird"}`),
		post("generate negative in", "/v1/generate", `{"platform":"spr","model":"OPT-13B","in":-1}`),
		post("generate negative cores", "/v1/generate", `{"platform":"spr","model":"OPT-13B","cores":-2}`),
		post("generate huge out", "/v1/generate", `{"platform":"spr","model":"OPT-13B","out":999999}`),
		post("generate prefix without group", "/v1/generate", `{"platform":"spr","model":"OPT-13B","prefix_tokens":8}`),
		post("generate prefix past prompt", "/v1/generate",
			`{"platform":"spr","model":"OPT-13B","in":16,"prefix_group":"g","prefix_tokens":32}`),
		post("generate gpu cores", "/v1/generate", `{"platform":"a100","model":"OPT-13B","cores":4}`),
		post("generate gpu memmode", "/v1/generate", `{"platform":"h100","model":"OPT-13B","memmode":"flat"}`),
		post("generate bad memmode", "/v1/generate", `{"platform":"spr","model":"OPT-13B","memmode":"weird"}`),
		post("generate bad cluster", "/v1/generate", `{"platform":"spr","model":"OPT-13B","cluster":"weird"}`),
		post("generate cores out of range", "/v1/generate", `{"platform":"spr","model":"OPT-13B","in":16,"out":2,"cores":100000}`),
		post("generate icl cache", "/v1/generate", `{"platform":"icl","model":"OPT-13B","in":16,"out":2,"memmode":"cache"}`),
		post("generate icl hbm-only", "/v1/generate", `{"platform":"icl","model":"OPT-13B","in":16,"out":2,"memmode":"hbm-only"}`),
		post("generate stream_options without stream", "/v1/generate", genBody+`,"stream_options":{"include_usage":true}}`),
		post("generate bad stream_options", "/v1/generate", genBody+withStream+`,"stream_options":{"include_usage":"yes"}}`),
		post("generate unknown stream option", "/v1/generate", genBody+withStream+`,"stream_options":{"bogus":1}}`),
		post("generate bad cache", "/v1/generate", genBody+`,"cache":{"enabled":"no"}}`),
		post("generate unknown cache option", "/v1/generate", genBody+`,"cache":{"enabeld":false}}`),
		post("generate negative min_prefix_tokens", "/v1/generate", genBody+`,"cache":{"min_prefix_tokens":-1}}`),
		post("generate unknown priority", "/v1/generate", genBody+`,"priority":"urgent"}`),
		post("generate unknown class header", "/v1/generate", genBody+`}`, "X-SLO-Class: urgent"),
		post("generate class disagreement", "/v1/generate", genBody+`,"priority":"interactive"}`, "X-SLO-Class: batch"),
		post("generate bad deadline", "/v1/generate", genBody+`}`, "X-Request-Deadline: soon"),
		post("generate zero deadline", "/v1/generate", genBody+`}`, "X-Request-Deadline: 0"),
		post("generate buffered accepts only SSE", "/v1/generate", genBody+`}`, "Accept: text/event-stream"),
		post("generate stream accepts only JSON", "/v1/generate", genBody+withStream+`}`, "Accept: application/json"),
		post("generate buffered accepts nothing JSON", "/v1/generate", genBody+`}`, "Accept: text/html"),
		post("generate malformed", "/v1/generate", genBody+`,`),
		post("generate trailing data", "/v1/generate", genBody+`} x`),
		post("generate unknown field", "/v1/generate", `{"bogus":1}`),
		post("generate speculation field", "/v1/generate", genBody+`,"speculation":{"enabled":false}}`),
		post("generate wrong type", "/v1/generate", `{"in":"many"}`),
		post("generate text/plain", "/v1/generate", genBody+`}`, "Content-Type: text/plain"),
		exchange{name: "generate GET", method: http.MethodGet, path: "/v1/generate"},
		exchange{name: "unknown path", method: http.MethodGet, path: "/v1/nope"},

		// Validation on the OpenAI-shaped surfaces.
		post("chat missing model", "/v1/chat/completions", `{"messages":[{"role":"user","content":"hi"}]}`),
		post("chat no messages", "/v1/chat/completions", `{"model":"OPT-13B","messages":[]}`),
		post("chat missing role", "/v1/chat/completions", `{"model":"OPT-13B","messages":[{"content":"hi"}]}`),
		post("chat n=2", "/v1/chat/completions", `{"model":"OPT-13B","n":2,"messages":[{"role":"user","content":"hi"}]}`),
		post("chat unknown model", "/v1/chat/completions", `{"model":"gpt-4","messages":[{"role":"user","content":"hi"}]}`),
		post("chat unknown platform", "/v1/chat/completions", chatBody+`,"platform":"tpu"}`),
		post("chat gpu cores", "/v1/chat/completions", chatBody+`,"platform":"a100","cores":8}`),
		post("chat cores out of range", "/v1/chat/completions", chatBody+`,"cores":100000}`),
		post("chat icl hbm-only", "/v1/chat/completions", chatBody+`,"platform":"icl","memmode":"hbm-only"}`),
		post("chat stream_options without stream", "/v1/chat/completions", chatBody+`,"stream_options":{"include_usage":true}}`),
		post("chat bad cache", "/v1/chat/completions", chatBody+`,"cache":{"min_prefix_tokens":-4}}`),
		post("chat messages wrong type", "/v1/chat/completions", `{"model":"OPT-13B","messages":"hi"}`),
		post("chat unknown field", "/v1/chat/completions", chatBody+`,"logprobs":true}`),
		exchange{name: "chat DELETE", method: http.MethodDelete, path: "/v1/chat/completions"},
		post("completions missing model", "/v1/completions", `{"prompt":"hello"}`),
		post("completions echo", "/v1/completions", complBody+`,"echo":true}`),
		post("completions n=2", "/v1/completions", complBody+`,"n":2}`),
		post("completions unknown model", "/v1/completions", `{"model":"gpt-4","prompt":"hello"}`),
		post("completions prompt array", "/v1/completions", `{"model":"OPT-13B","prompt":["a","b"]}`),
		post("completions cores out of range", "/v1/completions", complBody+`,"cores":100000}`),
		post("completions icl cache", "/v1/completions", complBody+`,"platform":"icl","memmode":"cache"}`),
		post("completions bad priority", "/v1/completions", complBody+`,"priority":"urgent"}`),

		// /v1/simulate and /v1/platforms.
		post("simulate spr", "/v1/simulate", `{"platform":"spr","model":"OPT-30B","batch":4}`),
		post("simulate zeros", "/v1/simulate", `{"platform":"spr","model":"OPT-13B","batch":0,"in":0,"out":0,"cores":0}`),
		post("simulate icl", "/v1/simulate", `{"platform":"icl","model":"OPT-13B"}`),
		post("simulate icl flat", "/v1/simulate", `{"platform":"icl","model":"OPT-13B","memmode":"flat"}`),
		post("simulate icl snc", "/v1/simulate", `{"platform":"icl","model":"OPT-13B","cluster":"snc"}`),
		post("simulate icl 64 cores", "/v1/simulate", `{"platform":"icl","model":"OPT-13B","cores":64}`),
		post("simulate a100 offload", "/v1/simulate", `{"platform":"a100","model":"OPT-30B"}`),
		post("simulate h100", "/v1/simulate", `{"platform":"h100","model":"OPT-13B","batch":8,"in":512}`),
		post("simulate gh200", "/v1/simulate", `{"platform":"gh200","model":"OPT-66B"}`),
		post("simulate knobs", "/v1/simulate",
			`{"platform":"spr","model":"LLaMA2-13B","batch":4,"in":256,"out":64,"cores":32,"memmode":"cache","cluster":"snc"}`),
		post("simulate hbm-only", "/v1/simulate", `{"platform":"spr","model":"OPT-13B","memmode":"hbm-only"}`),
		post("simulate ddr two sockets", "/v1/simulate", `{"platform":"spr","model":"OPT-13B","memmode":"ddr","cores":96}`),
		post("simulate hbm-only too small", "/v1/simulate", `{"platform":"spr","model":"LLaMA2-70B","memmode":"hbm-only"}`),
		post("simulate unknown platform", "/v1/simulate", `{"platform":"tpu","model":"OPT-13B"}`),
		post("simulate engine platform", "/v1/simulate", `{"platform":"tiny-opt","model":"OPT-13B"}`),
		post("simulate unknown model", "/v1/simulate", `{"platform":"spr","model":"GPT-5"}`),
		post("simulate negative batch", "/v1/simulate", `{"platform":"spr","model":"OPT-13B","batch":-1}`),
		post("simulate negative cores", "/v1/simulate", `{"platform":"spr","model":"OPT-13B","cores":-4}`),
		post("simulate bad memmode", "/v1/simulate", `{"platform":"spr","model":"OPT-13B","memmode":"weird"}`),
		post("simulate bad cluster", "/v1/simulate", `{"platform":"spr","model":"OPT-13B","cluster":"weird"}`),
		post("simulate gpu cores", "/v1/simulate", `{"platform":"a100","model":"OPT-13B","cores":8}`),
		post("simulate cores out of range", "/v1/simulate", `{"platform":"spr","model":"OPT-13B","cores":100000}`),
		post("simulate icl cache", "/v1/simulate", `{"platform":"icl","model":"OPT-13B","memmode":"cache"}`),
		post("simulate icl hbm-only", "/v1/simulate", `{"platform":"icl","model":"OPT-13B","memmode":"hbm-only"}`),
		post("simulate wrong type", "/v1/simulate", `{"platform":"spr","model":"OPT-13B","batch":"zero"}`),
		post("simulate unknown field", "/v1/simulate", `{"platform":"spr","model":"OPT-13B","bogus":1}`),
		post("simulate not json", "/v1/simulate", `not json`),
		post("simulate text/plain", "/v1/simulate", `{}`, "Content-Type: text/plain"),
		exchange{name: "simulate GET", method: http.MethodGet, path: "/v1/simulate?platform=spr&model=OPT-30B"},
		exchange{name: "platforms", method: http.MethodGet, path: "/v1/platforms"},
		state,
	)

	tinyOpen := `{"platform":"tiny-opt","in":16,"out":4`
	tiny := surfaces("tiny-opt ", tinyOpen, chatBody+`,"platform":"tiny-opt"`,
		`{"model":"tiny","prompt":"hello","max_tokens":4,"platform":"tiny-opt"`, true)
	tiny = append(tiny,
		exchange{name: "tiny-opt generate with a model", path: "/v1/generate",
			body: `{"platform":"tiny-opt","model":"OPT-13B","in":16,"out":2}`, engine: true},
		exchange{name: "tiny-llama generate", path: "/v1/generate",
			body: `{"platform":"tiny-llama","in":16,"out":2}`, engine: true},
		exchange{name: "tiny-opt generate with cores", path: "/v1/generate",
			body: `{"platform":"tiny-opt","in":16,"out":2,"cores":4}`, engine: true},
		exchange{name: "tiny-opt chat with memmode", path: "/v1/chat/completions",
			body: chatBody + `,"platform":"tiny-opt","memmode":"cache"}`, engine: true},
		exchange{name: "tiny-opt completions with cluster", path: "/v1/completions",
			body: complBody + `,"platform":"tiny-opt","cluster":"snc"}`, engine: true},
	)

	cachedPrefix := `{"platform":"spr","model":"OPT-13B","in":80,"out":2,"prefix_group":"sess","prefix_tokens":64`
	cached := []exchange{
		post("generate cold", "/v1/generate", cachedPrefix+`}`),
		post("generate hit", "/v1/generate", cachedPrefix+`}`),
		post("generate hit stream", "/v1/generate", cachedPrefix+withUsage+`}`),
		post("generate hit min_prefix_tokens", "/v1/generate", cachedPrefix+`,"cache":{"min_prefix_tokens":80}}`),
		post("generate opted out", "/v1/generate", cachedPrefix+`,"cache":{"enabled":false}}`),
		post("chat cold", "/v1/chat/completions", `{"model":"OPT-13B","max_tokens":2,"messages":[{"role":"system","content":"`+strings.Repeat("s", 120)+`"},{"role":"user","content":"one"}]}`),
		post("chat hit", "/v1/chat/completions", `{"model":"OPT-13B","max_tokens":2,"messages":[{"role":"system","content":"`+strings.Repeat("s", 120)+`"},{"role":"user","content":"two"}]}`),
		post("chat hit stream", "/v1/chat/completions", `{"model":"OPT-13B","max_tokens":2,"stream":true,"stream_options":{"include_usage":true},"messages":[{"role":"system","content":"`+strings.Repeat("s", 120)+`"},{"role":"user","content":"three"}]}`),
		post("completions cold", "/v1/completions", `{"model":"OPT-13B","max_tokens":2,"prompt":"`+strings.Repeat("d", 300)+`"}`),
		post("completions hit", "/v1/completions", `{"model":"OPT-13B","max_tokens":2,"prompt":"`+strings.Repeat("d", 300)+`!"}`),
		post("generate never fits", "/v1/generate", `{"platform":"spr","model":"OPT-13B","in":100000,"out":2}`),
		state,
	}

	clustered := []exchange{
		post("generate r0", "/v1/generate", genBody+`}`),
		post("generate r1", "/v1/generate", genBody+`}`),
		post("generate stream", "/v1/generate", genBody+withStream+`}`),
		post("chat", "/v1/chat/completions", chatBody+`}`),
		post("completions stream", "/v1/completions", complBody+withStream+`}`),
		state,
	}

	brownout := []exchange{
		post("generate", "/v1/generate", genBody+`}`),
		post("generate stream", "/v1/generate", genBody+withStream+`}`),
		post("chat", "/v1/chat/completions", chatBody+`}`),
		state,
	}

	groups := []wireGroup{
		{"analytic", defaultBackend, analytic},
		{"tiny", defaultBackend, tiny},
		{"cache", func(t *testing.T) Backend {
			gov := govern.New(govern.Config{Specs: PoolSpecResolver(16, 0), EnableCache: true})
			return newGateway(t, gateway.Config{Governor: gov}, LaneResolver())
		}, cached},
		{"cluster", func(t *testing.T) Backend {
			r, err := cluster.New(cluster.Config{Replicas: 2,
				Factory: func(id string) (*gateway.Gateway, error) {
					gov := govern.New(govern.Config{Specs: PoolSpecResolver(16, 0)})
					return gateway.New(gateway.Config{Governor: gov}, LaneResolver()), nil
				}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = r.Shutdown(context.Background()) })
			return r
		}, clustered},
		{"brownout", func(t *testing.T) Backend {
			return scriptedBackend{browned(t, 2), func(sink gateway.TokenSink) (gateway.Result, error) {
				for i := 0; i < 2 && sink != nil; i++ {
					sink(gateway.TokenEvent{Index: i, Batch: 1, VTime: 0.25 * float64(i+1), Final: i == 1})
				}
				return gateway.Result{Lane: "spr|OPT-13B|0||", InputLen: 64, OutputLen: 2,
					TTFTSeconds: 0.25, TPOTSeconds: 0.25, E2ESeconds: 0.5, BatchAtAdmission: 1,
					TokensPerSecond: 4, FinishReason: "brownout"}, nil
			}}
		}, brownout},
	}

	// Every error the backend can return, mapped on each surface.
	for _, e := range []error{
		gateway.ErrClassShed, gateway.ErrConcurrencyLimited, gateway.ErrDeadlineUnmeetable,
		gateway.ErrQueueFull, govern.ErrQuotaExceeded, govern.ErrShedding, govern.ErrKVExhausted,
		govern.ErrNeverFits, gateway.ErrDraining, gateway.ErrLaneQuarantined, gateway.ErrLaneBroken,
		gateway.ErrWatchdogTimeout, gateway.ErrLanePanic, cluster.ErrNoHealthyReplicas,
		cluster.ErrReplicaDown, context.DeadlineExceeded, context.Canceled, errors.New("lane exploded"),
	} {
		groups = append(groups, wireGroup{"error " + e.Error(), failWith(e, 0), []exchange{
			post("generate", "/v1/generate", genBody+`}`),
			post("generate stream", "/v1/generate", genBody+withStream+`}`),
			post("chat", "/v1/chat/completions", chatBody+`}`),
			post("completions stream", "/v1/completions", complBody+withStream+`}`),
		}})
	}
	return append(groups, wireGroup{"mid-stream error", failWith(gateway.ErrLaneBroken, 2), []exchange{
		post("generate stream", "/v1/generate", genBody+withStream+`}`),
		post("chat stream", "/v1/chat/completions", chatBody+withUsage+`}`),
		post("completions stream", "/v1/completions", complBody+withStream+`}`),
	}})
}

var (
	maskIDs      = regexp.MustCompile(`"(id|trace_id)":"[^"]*"`)
	maskTimes    = regexp.MustCompile(`"(created|wall_s|queue_s|latency_ewma_ms|ttft_ewma_ms)":-?[0-9][0-9.eE+-]*`)
	maskEngine   = regexp.MustCompile(`"(ttft_s|tpot_s|e2e_s|tokens_per_second|vtime_s|prefill_saved_s)":-?[0-9][0-9.eE+-]*`)
	maskDuration = regexp.MustCompile(`dur=[0-9.]+`)
)

// mask replaces what varies between runs: ids, timestamps, wall-clock
// seconds and latency averages, and (engine set) the values a tiny-* lane times on the host.
func mask(body string, engine bool) string {
	body = maskIDs.ReplaceAllString(body, `"$1":"<id>"`)
	body = maskTimes.ReplaceAllString(body, `"$1":<t>`)
	if engine {
		body = maskEngine.ReplaceAllString(body, `"$1":<t>`)
	}
	return body
}

// record serves one exchange and renders it: the request, then status,
// headers (sorted, volatile values masked) and body.
func record(t *testing.T, h http.Handler, c exchange) string {
	method := c.method
	if method == "" {
		method = http.MethodPost
	}
	req := httptest.NewRequest(method, c.path, strings.NewReader(c.body))
	if c.body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	for _, kv := range c.header {
		k, v, _ := strings.Cut(kv, ": ")
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	var b strings.Builder
	fmt.Fprintf(&b, "%s %s\n", method, c.path)
	for _, kv := range c.header {
		fmt.Fprintln(&b, kv)
	}
	if c.body != "" {
		fmt.Fprintln(&b, c.body)
	}
	res := rec.Result()
	fmt.Fprintf(&b, "=> %d\n", res.StatusCode)
	keys := make([]string, 0, len(res.Header))
	for k := range res.Header {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := res.Header.Get(k)
		switch k {
		case "X-Request-Id", "X-Trace-Id":
			v = "<id>"
		case "Retry-After":
			if n, err := strconv.Atoi(v); err != nil || n < 1 || n > 30 {
				t.Errorf("%s: Retry-After %q not an integer in [1, 30]", c.name, v)
			}
			v = "<1..30>"
		case "Server-Timing":
			v = maskDuration.ReplaceAllString(v, "dur=<ms>")
		}
		fmt.Fprintf(&b, "%s: %s\n", k, v)
	}
	fmt.Fprintf(&b, "\n%s\n", mask(rec.Body.String(), c.engine))
	return b.String()
}

// TestWireGolden: every recorded exchange answers, byte for byte, what
// testdata/wire.txt holds.
func TestWireGolden(t *testing.T) {
	var got strings.Builder
	for _, g := range wireGroups() {
		h := NewServer(g.backend(t)).Handler()
		for _, c := range g.calls {
			fmt.Fprintf(&got, "### %s / %s\n%s\n", g.name, c.name, record(t, h, c))
		}
	}
	checkGolden(t, "testdata/wire.txt", got.String())
}

// checkGolden compares got with the file at path (or rewrites it under
// -update) and reports the first differing line with its section header.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal([]byte(got), want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < len(g) && i < len(w); i++ {
		if strings.HasPrefix(w[i], "### ") {
			section = w[i]
		}
		if g[i] != w[i] {
			t.Fatalf("%s differs at line %d (%s):\n  recorded: %s\n  served:   %s", path, i+1, section, w[i], g[i])
		}
	}
	t.Fatalf("%s: served %d lines, recorded %d", path, len(g), len(w))
}
