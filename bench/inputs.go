package main

import (
	"fmt"

	"repro/internal/workload"
)

// scheduleLen is how many distinct requests a schedule holds; a run that
// needs more cycles through them (cluster-batch keeps prefixes unique by
// request number, not by schedule slot).
const scheduleLen = 4096

var sloClasses = [...]string{"interactive", "standard", "batch"}

// servingReq is one generated serving request. It is everything the
// systems under test are told; nothing else about the seed reaches them.
type servingReq struct {
	In, Out int
	// Class and Client are cluster-batch's SLO class and tenant;
	// http-stream sends neither.
	Class, Client string
	// Group is the shared prefix_group (http-stream); empty on
	// cluster-batch, whose prefix is unique per request.
	Group        string
	PrefixTokens int
}

// httpStreamSchedule generates http-stream's inputs: 512±6-token prompts,
// 64 output tokens, four prefix groups sharing 448 leading tokens.
func httpStreamSchedule(seed int64) []servingReq {
	g := workload.NewGenerator(seed)
	jitter := g.Prompt(scheduleLen, 13)
	groups := g.Prompt(scheduleLen, 4)
	reqs := make([]servingReq, scheduleLen)
	for i := range reqs {
		reqs[i] = servingReq{
			In: 506 + jitter[i], Out: 64,
			Group:        fmt.Sprintf("g%d", groups[i]),
			PrefixTokens: 448,
		}
	}
	return reqs
}

// clusterBatchSchedule generates cluster-batch's inputs: 192–255-token
// prompts whose first 128 tokens are a segment no other request shares,
// 32 output tokens, three SLO classes and eight clients.
func clusterBatchSchedule(seed int64) []servingReq {
	g := workload.NewGenerator(seed)
	lens := g.Prompt(scheduleLen, 64)
	classes := g.Prompt(scheduleLen, len(sloClasses))
	clients := g.Prompt(scheduleLen, 8)
	reqs := make([]servingReq, scheduleLen)
	for i := range reqs {
		reqs[i] = servingReq{
			In: 192 + lens[i], Out: 32,
			Class:        sloClasses[classes[i]],
			Client:       fmt.Sprintf("client-%d", clients[i]),
			PrefixTokens: 128,
		}
	}
	return reqs
}

// enginePrompts generates n batches of `batch` prompts of promptLen token
// ids each.
func enginePrompts(seed int64, n, batch, promptLen, vocab int) [][][]int {
	g := workload.NewGenerator(seed)
	out := make([][][]int, n)
	for i := range out {
		out[i] = make([][]int, batch)
		for b := range out[i] {
			out[i][b] = g.Prompt(promptLen, vocab)
		}
	}
	return out
}
