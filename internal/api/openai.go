package api

// openai.go adapts the gateway to the OpenAI API shapes:
// POST /v1/chat/completions (chat.completion / chat.completion.chunk)
// and the older POST /v1/completions (text_completion). Both convert to
// a GenerateRequest and run through the exact validation and serving
// path as /v1/generate — the adapter owns only the request mapping and
// the response JSON.
//
// Compatibility scope (see docs/api.md for the full matrix): request and
// response framing, streaming chunks with [DONE], finish_reason and
// usage token accounting are faithful; sampling knobs (temperature,
// top_p, stop, seed, penalties) are accepted and ignored because the
// serving layer prices scheduling, not sampling — completion text is
// synthesized deterministically, one word per token. Prompt length is
// estimated character-wise, consistent with the repo's char-level
// tokenizer (internal/texttoken: one token per character plus BOS).

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"time"

	"repro/internal/gateway"
	"repro/internal/prefixcache"
	"repro/internal/trace"
)

// chatMessage is one chat turn, in requests and buffered responses.
type chatMessage struct {
	Role    string `json:"role"`
	Content string `json:"content"`
}

// openAIRequest is the field block both OpenAI-shaped requests share.
// RawMessage fields are accepted-but-ignored sampling parameters, kept
// raw so any JSON type a client sends passes the strict decoder.
type openAIRequest struct {
	// platformSpec carries the required model and the vendor extensions
	// selecting the serving lane, as on /v1/generate; Platform defaults
	// to "spr" (the paper's flagship CPU).
	platformSpec
	MaxTokens        int             `json:"max_tokens"`
	N                int             `json:"n"`
	Stream           bool            `json:"stream"`
	StreamOptions    json.RawMessage `json:"stream_options"`
	Temperature      json.RawMessage `json:"temperature"`
	TopP             json.RawMessage `json:"top_p"`
	Stop             json.RawMessage `json:"stop"`
	Seed             json.RawMessage `json:"seed"`
	User             json.RawMessage `json:"user"`
	PresencePenalty  json.RawMessage `json:"presence_penalty"`
	FrequencyPenalty json.RawMessage `json:"frequency_penalty"`
	// Cache is the per-request prefix-cache knob, as on /v1/generate.
	Cache json.RawMessage `json:"cache"`
	// Priority is the SLO class (interactive | standard | batch), as on
	// /v1/generate; it must agree with X-SLO-Class when both are set.
	Priority string `json:"priority"`
}

// chatCompletionsRequest is the body of POST /v1/chat/completions.
type chatCompletionsRequest struct {
	openAIRequest
	Messages []chatMessage `json:"messages"`
	// MaxCompletionTokens wins over the deprecated MaxTokens; both zero
	// means the /v1/generate default (32).
	MaxCompletionTokens int `json:"max_completion_tokens"`
}

// completionsRequest is the body of POST /v1/completions, the legacy
// text-completion alias. Prompt must be a string (the array forms are
// not supported).
type completionsRequest struct {
	openAIRequest
	Prompt string `json:"prompt"`
	Echo   bool   `json:"echo"`
}

// usage is the OpenAI token-accounting block. CachedTokens is the
// vendor-native count of prompt tokens served from the prefix cache;
// PromptTokensDetails carries the same count in the OpenAI-compatible
// location.
type usage struct {
	PromptTokens        int                  `json:"prompt_tokens"`
	CompletionTokens    int                  `json:"completion_tokens"`
	TotalTokens         int                  `json:"total_tokens"`
	CachedTokens        int                  `json:"cached_tokens"`
	PromptTokensDetails *promptTokensDetails `json:"prompt_tokens_details,omitempty"`
}

// promptTokensDetails is the OpenAI prompt-token breakdown.
type promptTokensDetails struct {
	CachedTokens int `json:"cached_tokens"`
}

// usageFor derives the usage block from a gateway result.
func usageFor(res gateway.Result) usage {
	u := usage{
		PromptTokens:     res.InputLen,
		CompletionTokens: res.OutputLen,
		TotalTokens:      res.InputLen + res.OutputLen,
		CachedTokens:     res.CachedTokens,
	}
	if res.CachedTokens > 0 {
		u.PromptTokensDetails = &promptTokensDetails{CachedTokens: res.CachedTokens}
	}
	return u
}

// finishLength is the default finish_reason: every request decodes
// exactly its requested output length. Under brownout the gateway may
// clamp batch-class requests and reports finish_reason "brownout".
const finishLength = "length"

// finishReasonFor maps a gateway result to its finish_reason: the
// gateway's own reason when it set one (brownout cap), else "length".
func finishReasonFor(res gateway.Result) string {
	if res.FinishReason != "" {
		return res.FinishReason
	}
	return finishLength
}

// promptTokens estimates a chat prompt's token count: one token per
// content character (the texttoken contract) plus a fixed per-message
// template overhead for the role framing, plus BOS.
func promptTokens(msgs []chatMessage) int {
	n := 1 // BOS
	for _, m := range msgs {
		n += len(m.Content) + len(m.Role) + 4
	}
	return n
}

// defaultOpenAIPlatform serves OpenAI-shaped requests that don't pick a
// lane: the paper's flagship CPU platform.
const defaultOpenAIPlatform = "spr"

// chatSegments describes a chat prompt for the prefix cache: one
// content-hashed segment per message, so two conversations share cache
// entries exactly as far as their message lists agree — the multi-turn
// chat and shared-system-prompt patterns, with no client opt-in needed.
// Token counts mirror promptTokens exactly.
func chatSegments(msgs []chatMessage) []prefixcache.Segment {
	segs := make([]prefixcache.Segment, len(msgs))
	for i, m := range msgs {
		h := fnv.New64a()
		io.WriteString(h, m.Role)
		h.Write([]byte{0})
		io.WriteString(h, m.Content)
		tokens := len(m.Content) + len(m.Role) + 4
		if i == 0 {
			tokens++ // BOS
		}
		segs[i] = prefixcache.Segment{
			ID:     fmt.Sprintf("msg:%016x", h.Sum64()),
			Tokens: tokens,
		}
	}
	return segs
}

// promptChunkChars is the segment granularity for raw text prompts:
// completions share cache entries per aligned chunk of this many
// characters (one token per character), so a common document prefix is
// shareable without message structure.
const promptChunkChars = 256

// promptSegments describes a raw text prompt for the prefix cache as
// content-hashed fixed-size chunks. Token counts mirror the completions
// estimate (BOS + one token per character).
func promptSegments(prompt string) []prefixcache.Segment {
	if prompt == "" {
		return nil
	}
	var segs []prefixcache.Segment
	for start := 0; start < len(prompt); start += promptChunkChars {
		end := start + promptChunkChars
		if end > len(prompt) {
			end = len(prompt)
		}
		h := fnv.New64a()
		io.WriteString(h, prompt[start:end])
		tokens := end - start
		if start == 0 {
			tokens++ // BOS
		}
		segs = append(segs, prefixcache.Segment{
			ID:     fmt.Sprintf("txt:%016x", h.Sum64()),
			Tokens: tokens,
		})
	}
	return segs
}

// toGenerate maps the chat request onto the shared GenerateRequest, so
// /v1/chat/completions runs through exactly /v1/generate's validation.
func (c *chatCompletionsRequest) toGenerate() (GenerateRequest, error) {
	if c.Model == "" {
		return GenerateRequest{}, fmt.Errorf("model is required")
	}
	if len(c.Messages) == 0 {
		return GenerateRequest{}, fmt.Errorf("messages must contain at least one message")
	}
	for i, m := range c.Messages {
		if m.Role == "" {
			return GenerateRequest{}, fmt.Errorf("messages[%d]: role is required", i)
		}
	}
	out := c.MaxCompletionTokens
	if out == 0 {
		out = c.MaxTokens
	}
	return c.openAIRequest.toGenerate(promptTokens(c.Messages), out, chatSegments(c.Messages))
}

// toGenerate maps the text-completion request onto GenerateRequest.
func (c *completionsRequest) toGenerate() (GenerateRequest, error) {
	if c.Model == "" {
		return GenerateRequest{}, fmt.Errorf("model is required")
	}
	// BOS + one token per character.
	req, err := c.openAIRequest.toGenerate(1+len(c.Prompt), c.MaxTokens, promptSegments(c.Prompt))
	if err == nil && c.Echo {
		err = fmt.Errorf("echo is not supported")
	}
	return req, err
}

// toGenerate is the tail both OpenAI mappings share: the request with
// in prompt tokens, out completion tokens and the prompt's cache
// segments, on the default platform unless one was picked.
func (c *openAIRequest) toGenerate(in, out int, prefix []prefixcache.Segment) (GenerateRequest, error) {
	if c.N > 1 {
		return GenerateRequest{}, fmt.Errorf("n=%d is not supported (only n=1)", c.N)
	}
	req := GenerateRequest{platformSpec: c.platformSpec, InputLen: in, OutputLen: out,
		Stream: c.Stream, StreamOptions: c.StreamOptions, Cache: c.Cache, Priority: c.Priority,
		prefix: prefix}
	if req.Platform == "" {
		req.Platform = defaultOpenAIPlatform
	}
	return req, nil
}

// chatDelta is the incremental message fragment in a streamed chunk.
type chatDelta struct {
	Role    string `json:"role,omitempty"`
	Content string `json:"content,omitempty"`
}

// chatChoice is one choice in a chat.completion or chat.completion.chunk
// object; Message is set on buffered responses, Delta on chunks.
type chatChoice struct {
	Index        int          `json:"index"`
	Message      *chatMessage `json:"message,omitempty"`
	Delta        *chatDelta   `json:"delta,omitempty"`
	FinishReason *string      `json:"finish_reason"`
}

// textChoice is one choice in a text_completion object (buffered and
// streamed chunks share the shape).
type textChoice struct {
	Index        int     `json:"index"`
	Text         string  `json:"text"`
	FinishReason *string `json:"finish_reason"`
}

// openAIResponse is the object both OpenAI surfaces send, buffered and
// as each stream chunk, around the surface's choice type. TraceID is a
// vendor extension correlating with X-Trace-ID and GET /v1/traces.
type openAIResponse[C any] struct {
	ID      string `json:"id"`
	Object  string `json:"object"`
	Created int64  `json:"created"`
	Model   string `json:"model"`
	Choices []C    `json:"choices"`
	Usage   *usage `json:"usage,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
}

// The chat.completion (and .chunk) and text_completion objects.
type (
	chatCompletionResponse = openAIResponse[chatChoice]
	completionsResponse    = openAIResponse[textChoice]
)

// openAIShape renders one OpenAI surface: its object names, and its
// choice for the whole completion, for one streamed token, and for the
// end of a stream.
type openAIShape[C any] struct {
	id, model, object, chunkObject string
	created                        int64
	whole                          func(text string, reason *string) C
	delta                          func(ev gateway.TokenEvent) C
	end                            func(reason *string) C
}

func (c *openAIShape[C]) response(object string, choices []C, u *usage) openAIResponse[C] {
	return openAIResponse[C]{ID: c.id, Object: object, Created: c.created, Model: c.model,
		Choices: choices, Usage: u}
}

func (c *openAIShape[C]) buffered(res gateway.Result) any {
	reason, u := finishReasonFor(res), usageFor(res)
	out := c.response(c.object, []C{c.whole(completionText(res.OutputLen), &reason)}, &u)
	out.TraceID = res.TraceID
	return out
}

func (c *openAIShape[C]) token(ev gateway.TokenEvent) any {
	return c.response(c.chunkObject, []C{c.delta(ev)}, nil)
}

func (c *openAIShape[C]) terminal(res gateway.Result, includeUsage bool) []any {
	reason := finishReasonFor(res)
	out := []any{c.response(c.chunkObject, []C{c.end(&reason)}, nil)}
	if includeUsage {
		u := usageFor(res)
		out = append(out, c.response(c.chunkObject, []C{}, &u))
	}
	return out
}

// completionID builds the response id from the request's trace, so the
// OpenAI-shaped id is directly greppable in /v1/traces.
func completionID(prefix string, r *http.Request) string {
	id := trace.FromContext(r.Context()).ID()
	if id == "" {
		id = trace.NewID()
	}
	return prefix + id
}

// serveOpenAI decodes an OpenAI-shaped body into req, maps it onto a
// GenerateRequest and serves it in the shape built for its model.
func (s *Server) serveOpenAI(w http.ResponseWriter, r *http.Request,
	req interface {
		toGenerate() (GenerateRequest, error)
	}, shape func(model string) responseShape) {
	admit := time.Now()
	if err := decodeBody(r, req); err != nil {
		writeBodyError(w, err)
		return
	}
	greq, err := req.toGenerate()
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	s.serveGeneration(w, r, admit, &greq, shape(greq.Model))
}

func (s *Server) handleChatCompletions(w http.ResponseWriter, r *http.Request) {
	s.serveOpenAI(w, r, &chatCompletionsRequest{}, func(model string) responseShape {
		return &openAIShape[chatChoice]{id: completionID("chatcmpl-", r), model: model,
			object: "chat.completion", chunkObject: "chat.completion.chunk", created: time.Now().Unix(),
			whole: func(text string, reason *string) chatChoice {
				return chatChoice{Message: &chatMessage{Role: "assistant", Content: text}, FinishReason: reason}
			},
			delta: func(ev gateway.TokenEvent) chatChoice {
				d := &chatDelta{Content: tokenText(ev.Index)}
				if ev.Index == 0 {
					d.Role = "assistant"
				}
				return chatChoice{Delta: d}
			},
			end: func(reason *string) chatChoice { return chatChoice{Delta: &chatDelta{}, FinishReason: reason} },
		}
	})
}

func (s *Server) handleCompletions(w http.ResponseWriter, r *http.Request) {
	s.serveOpenAI(w, r, &completionsRequest{}, func(model string) responseShape {
		return &openAIShape[textChoice]{id: completionID("cmpl-", r), model: model,
			object: "text_completion", chunkObject: "text_completion", created: time.Now().Unix(),
			whole: func(text string, reason *string) textChoice { return textChoice{Text: text, FinishReason: reason} },
			delta: func(ev gateway.TokenEvent) textChoice { return textChoice{Text: tokenText(ev.Index)} },
			end:   func(reason *string) textChoice { return textChoice{FinishReason: reason} },
		}
	})
}
