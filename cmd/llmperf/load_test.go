package main

// load_test.go pins the load generator (-url): what each mode prints
// against an in-process llmperfd — a single gateway, a 2-replica router
// with and without a draining replica, a gateway paced in wall time for
// -ramp, and an address nobody listens on — plus the error exits. Only
// the values the wall clock decides are masked (see maskWall). `make
// wire-golden` rewrites testdata/load.txt (on purpose only).

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/gateway"
	"repro/internal/govern"
)

// loadGroup is a run of llmperf invocations against one fresh backend,
// in order; each invocation's args follow "-url <base>". A nil backend
// is an address nothing listens on.
type loadGroup struct {
	name    string
	backend func(t *testing.T) api.Backend
	runs    [][]string
}

// newGateway returns a gateway with a caching KV governor over the
// analytic lanes, shut down when the test ends.
func newGateway(t *testing.T, cfg gateway.Config, resolve gateway.Resolver) *gateway.Gateway {
	cfg.Governor = govern.New(govern.Config{Specs: api.PoolSpecResolver(govern.DefaultBlockSize, 0), EnableCache: true})
	gw := gateway.New(cfg, resolve)
	t.Cleanup(func() { _ = gw.Shutdown(context.Background()) })
	return gw
}

// newRouter returns a round-robin router over two gateways; with
// drainR1, r1 refuses every request (ErrDraining) so the router fails
// each one routed there over to r0 until r1 is ejected.
func newRouter(drainR1 bool) func(t *testing.T) api.Backend {
	return func(t *testing.T) api.Backend {
		r, err := cluster.New(cluster.Config{Replicas: 2, EjectCooloff: time.Hour,
			Factory: func(id string) (*gateway.Gateway, error) {
				gw := newGateway(t, gateway.Config{}, api.LaneResolver())
				if drainR1 && id == "r1" {
					if err := gw.Shutdown(context.Background()); err != nil {
						return nil, err
					}
				}
				return gw, nil
			}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = r.Shutdown(context.Background()) })
		return r
	}
}

func loadGroups() []loadGroup {
	gateway0 := func(t *testing.T) api.Backend {
		return newGateway(t, gateway.Config{}, api.LaneResolver())
	}
	return []loadGroup{
		{"gateway", gateway0, [][]string{
			{"-n", "8", "-concurrency", "2"},
			{"-n", "6", "-concurrency", "3", "-platform", "icl", "-model", "LLaMA2-13B", "-in", "64", "-out", "4"},
			{"-stream", "-n", "8", "-concurrency", "2"},
			{"-stream", "-n", "4", "-concurrency", "1", "-platform", "h100", "-in", "32", "-out", "2"},
			{"-chat-sessions", "3", "-chat-turns", "3", "-system-tokens", "128", "-in", "32", "-out", "8", "-concurrency", "1"},
			// The limit on in is 131072 tokens: each session's first turns
			// fit, its later ones (the context grows) are refused with 400.
			{"-chat-sessions", "2", "-chat-turns", "4", "-system-tokens", "131000", "-in", "16", "-out", "8", "-concurrency", "1", "-model", "OPT-1.3B"},
			{"-model", "GPT-5", "-n", "3", "-concurrency", "1"},
			{"-model", "GPT-5", "-stream", "-n", "3", "-concurrency", "1"},
			{"-concurrency", "0"},
			{"-ramp", "-ramp-steps", "0.5,nope"},
			{"-ramp", "-ramp-steps", "1,-2"},
		}},
		{"cluster", newRouter(false), [][]string{
			{"-n", "8", "-concurrency", "2"},
			{"-stream", "-n", "6", "-concurrency", "1"},
		}},
		{"cluster r1 draining", newRouter(true), [][]string{
			{"-n", "8", "-concurrency", "1"},
			{"-stream", "-n", "4", "-concurrency", "1"},
		}},
		{"paced", func(t *testing.T) api.Backend {
			return newGateway(t, gateway.Config{Timescale: 0.02}, api.LaneResolver())
		}, [][]string{
			{"-ramp", "-ramp-steps", "0.5,1", "-ramp-step-duration", "100ms", "-concurrency", "2", "-in", "32", "-out", "4"},
		}},
		{"closed port", nil, [][]string{
			{"-n", "4", "-concurrency", "2"},
			{"-stream", "-n", "4", "-concurrency", "2"},
			{"-ramp", "-ramp-step-duration", "50ms", "-concurrency", "2"},
		}},
	}
}

// closedAddr returns the address of a listener that was opened and
// closed again: connecting to it is refused.
func closedAddr(t *testing.T) string {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// wallValues are the report values the wall clock decides: elapsed
// time, client-timed latencies and rates, Server-Timing phase
// durations, the chat prefill (modeled ttft_s, but which requests share
// a batch — and so each ttft_s — is decided by when they arrive) and
// everything the ramp derives from its calibrated capacity.
var wallValues = []*regexp.Regexp{
	regexp.MustCompile(`( )[0-9.]+(s wall)`),
	regexp.MustCompile(`(p50 |p95 |p99 )[0-9.]+(m?s)`),
	regexp.MustCompile(`(throughput : |streamed, )[0-9.]+( (tok|req)/s)`),
	regexp.MustCompile(`(?m)^(    [a-z_]+ +[0-9]+ +)[0-9. s]+()$`),
	regexp.MustCompile(`(prefill )[0-9.]+(s \(modeled\))`),
	regexp.MustCompile(`(prefill_reduction=)-?[0-9.]+(%)`),
	regexp.MustCompile(`(capacity |offered=|sent=|goodput=|p99_ttft=)[0-9.]+()`),
	regexp.MustCompile(`(interactive_goodput_ratio=|interactive_p99_ttft_ms_at_2x=|interactive_slo_ok=)[0-9.]+()`),
}

// maskWall replaces each wall-clock value in a report with <t>.
func maskWall(report string) string {
	for _, re := range wallValues {
		report = re.ReplaceAllString(report, "${1}<t>${2}")
	}
	return report
}

// TestLoadGolden: each load-generator invocation exits, prints and
// complains as recorded, up to the wall-clock values.
func TestLoadGolden(t *testing.T) {
	var got strings.Builder
	for _, g := range loadGroups() {
		base, shown := "http://"+closedAddr(t), "http://closed"
		if g.backend != nil {
			srv := httptest.NewServer(api.NewServer(g.backend(t)).Handler())
			base, shown = srv.URL, "http://llmperfd"
			t.Cleanup(srv.Close)
		}
		fmt.Fprintf(&got, "### %s\n", g.name)
		for _, args := range g.runs {
			var stdout, stderr bytes.Buffer
			code := run(append([]string{"-url", base}, args...), &stdout, &stderr)
			fmt.Fprintf(&got, "$ llmperf -url %s %s\nexit %d\n%s", shown, strings.Join(args, " "), code,
				maskWall(strings.ReplaceAll(stdout.String(), base, shown)))
			if stderr.Len() > 0 {
				fmt.Fprintf(&got, "--- stderr\n%s", strings.ReplaceAll(stderr.String(), base, shown))
			}
			got.WriteString("\n")
		}
	}
	checkGolden(t, "testdata/load.txt", got.String())
}
