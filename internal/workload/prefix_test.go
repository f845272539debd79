package workload

import "testing"

func TestChatSessionsSharedContextGrows(t *testing.T) {
	g := NewGenerator(7)
	g.MeanInputLen, g.MeanOutputLen = 64, 32
	reqs := g.ChatSessions(3, 4, 512)
	if len(reqs) != 12 {
		t.Fatalf("got %d requests, want 12", len(reqs))
	}
	sessions := BySession(reqs)
	if len(sessions) != 3 {
		t.Fatalf("got %d sessions, want 3", len(sessions))
	}
	for s, turns := range sessions {
		if len(turns) != 4 {
			t.Fatalf("session %d has %d turns, want 4", s, len(turns))
		}
		prevShared, prevTotal := 0, 0
		for i, r := range turns {
			if r.Turn != i {
				t.Errorf("session %d: turn %d recorded as %d", s, i, r.Turn)
			}
			if r.Group != turns[0].Group {
				t.Errorf("session %d: group changed mid-session", s)
			}
			if i == 0 && r.SharedTokens != 512 {
				t.Errorf("first turn shares %d, want the 512-token system prompt", r.SharedTokens)
			}
			if r.SharedTokens >= r.InputLen {
				t.Errorf("shared %d must leave a private user message (in=%d)", r.SharedTokens, r.InputLen)
			}
			if i > 0 {
				if r.SharedTokens != prevTotal {
					t.Errorf("session %d turn %d shares %d, want previous context %d",
						s, i, r.SharedTokens, prevTotal)
				}
				if r.SharedTokens <= prevShared {
					t.Errorf("shared context must grow: %d -> %d", prevShared, r.SharedTokens)
				}
			}
			prevShared = r.SharedTokens
			prevTotal = r.InputLen + r.OutputLen
		}
	}
	// Sessions must not share groups with each other.
	if sessions[0][0].Group == sessions[1][0].Group {
		t.Error("distinct sessions must use distinct groups")
	}
	// Determinism: same seed, same trace.
	g2 := NewGenerator(7)
	g2.MeanInputLen, g2.MeanOutputLen = 64, 32
	again := g2.ChatSessions(3, 4, 512)
	for i := range reqs {
		if reqs[i] != again[i] {
			t.Fatalf("trace not deterministic at request %d", i)
		}
	}
}
