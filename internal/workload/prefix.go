package workload

// prefix.go generates the prefix-sharing workloads the serving stack's
// radix KV cache is built for: multi-turn chatbot sessions whose every
// turn resends the growing conversation. Each request comes with the prefix_group
// client spec the v1 API accepts, so a load generator can replay these
// traces directly against /v1/generate and measure hit rate and prefill
// compute saved.

import "fmt"

// PrefixRequest is one request of a prefix-sharing trace: the base
// Request plus the prefix_group / prefix_tokens client spec.
type PrefixRequest struct {
	Request
	// Group is the request's prefix_group: requests with equal groups
	// share the cache for their leading SharedTokens tokens.
	Group string
	// SharedTokens is the request's prefix_tokens: how many leading
	// prompt tokens are shared content rather than a private tail.
	SharedTokens int
	// Session identifies the conversation (chat) or agent (agentic) the
	// request belongs to; requests within a session are ordered by Turn
	// and must be issued sequentially.
	Session int
	// Turn is the request's index within its session.
	Turn int
}

// ChatSessions generates a multi-turn chatbot trace: nSessions
// conversations of turnsPerSession turns, every turn resending the
// system prompt (systemTokens) plus the full history plus a fresh user
// message. Everything before the new user message is shared with the
// session's previous turn — group = the session — so a prefix cache
// turns each turn's prefill into just the new message. Arrival times are
// Poisson; per-session turn order is the replay contract.
func (g *Generator) ChatSessions(nSessions, turnsPerSession, systemTokens int) []PrefixRequest {
	var out []PrefixRequest
	ctx := make([]int, nSessions) // shared context tokens accumulated per session
	for i := range ctx {
		ctx[i] = systemTokens
	}
	var t float64
	id := 0
	for turn := 0; turn < turnsPerSession; turn++ {
		for s := 0; s < nSessions; s++ {
			user := g.sampleLen(g.MeanInputLen)
			gen := g.sampleLen(g.MeanOutputLen)
			t += g.rng.ExpFloat64() / g.ArrivalRate
			out = append(out, PrefixRequest{
				Request: Request{
					ID:             id,
					InputLen:       ctx[s] + user,
					OutputLen:      gen,
					ArrivalSeconds: t,
				},
				Group:        fmt.Sprintf("chat-%d", s),
				SharedTokens: ctx[s],
				Session:      s,
				Turn:         turn,
			})
			id++
			// The next turn's shared context is this whole exchange: the
			// prompt it sent plus the answer it got back.
			ctx[s] += user + gen
		}
	}
	return out
}

// BySession splits a prefix trace into per-session slices in turn order,
// the unit a replaying client must serialize.
func BySession(reqs []PrefixRequest) [][]PrefixRequest {
	max := -1
	for _, r := range reqs {
		if r.Session > max {
			max = r.Session
		}
	}
	out := make([][]PrefixRequest, max+1)
	for _, r := range reqs {
		out[r.Session] = append(out[r.Session], r)
	}
	return out
}
