package api

// admin.go serves the operator surface, outside the serving data plane:
// the state document, runtime fault injection (chaos drills arm a rule
// set against the live gateway, watch the lanes degrade and recover,
// then disarm — without restarting the process) and the prefix-cache
// flush.

import (
	"fmt"
	"net/http"

	"repro/internal/faults"
)

// armFaultsRequest is the body of POST /v1/admin/faults.
type armFaultsRequest struct {
	Rules []faults.Rule `json:"rules"`
}

// handleAdminFaults serves /v1/admin/faults:
//
//	GET     current injector status (armed rules, fire counts)
//	POST    arm a rule set (replaces any previous set)
//	DELETE  disarm all rules
func (s *Server) handleAdminFaults(w http.ResponseWriter, r *http.Request) {
	inj := s.gw.Injector()
	if inj == nil {
		writeError(w, http.StatusServiceUnavailable, CodeUnavailable,
			fmt.Errorf("fault injection not enabled on this gateway"))
		return
	}
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, inj.Snapshot())
	case http.MethodPost:
		var req armFaultsRequest
		if err := decodeBody(r, &req); err != nil {
			writeBodyError(w, err)
			return
		}
		if len(req.Rules) == 0 {
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				fmt.Errorf("rules must contain at least one fault rule"))
			return
		}
		if err := inj.Arm(req.Rules...); err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, inj.Snapshot())
	case http.MethodDelete:
		inj.Disarm()
		writeJSON(w, http.StatusOK, inj.Snapshot())
	}
}

// handleState serves the backend's operator state document. It always
// answers 200: a disabled feature is an omitted key, not an error.
func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.gw.State())
}

// handleCacheFlush drops every unpinned cache entry (operator surface:
// before an A/B measurement, or to reclaim blocks ahead of a burst).
// Pinned paths survive and in-flight forks keep their blocks — flushing
// is always safe, never a correctness event.
func (s *Server) handleCacheFlush(w http.ResponseWriter, r *http.Request) {
	released, ok := s.gw.FlushCache()
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound,
			fmt.Errorf("prefix caching disabled (llmperfd -kv-cache=false, or no KV governor configured)"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"blocks_released": released})
}
