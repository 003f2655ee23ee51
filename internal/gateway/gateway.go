package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"notebookos/internal/platform"
	"notebookos/internal/resources"
)

// Server is the HTTP gateway over a platform.
type Server struct {
	p   *platform.Platform
	mux *http.ServeMux
}

// New returns a gateway for the platform.
func New(p *platform.Platform) *Server {
	s := &Server{p: p, mux: http.NewServeMux()}
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/api/cluster", s.handleCluster)
	s.mux.HandleFunc("/api/sessions", s.handleSessions)
	s.mux.HandleFunc("/api/sessions/", s.handleSession)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, s.p.Status())
}

// createSessionRequest is the POST /api/sessions body.
type createSessionRequest struct {
	User      string `json:"user"`
	GPUs      int    `json:"gpus"`
	Millicpus int64  `json:"millicpus"`
	MemoryMB  int64  `json:"memory_mb"`
	VRAMGB    int    `json:"vram_gb"`
}

// sessionView is the JSON rendering of a session.
type sessionView struct {
	ID       string    `json:"id"`
	KernelID string    `json:"kernel_id"`
	User     string    `json:"user"`
	GPUs     int       `json:"gpus"`
	Created  time.Time `json:"created"`
}

func viewOf(sess *platform.Session) sessionView {
	return sessionView{
		ID:       sess.ID,
		KernelID: sess.KernelID,
		User:     sess.User,
		GPUs:     sess.Request.GPUs,
		Created:  sess.Created,
	}
}

func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		sessions := s.p.Sessions()
		out := make([]sessionView, 0, len(sessions))
		for _, sess := range sessions {
			out = append(out, viewOf(sess))
		}
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		var req createSessionRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
			return
		}
		if req.User == "" {
			req.User = "anonymous"
		}
		spec := resources.Spec{
			Millicpus: req.Millicpus,
			MemoryMB:  req.MemoryMB,
			GPUs:      req.GPUs,
			VRAMGB:    float64(req.VRAMGB),
		}
		if spec.Millicpus == 0 {
			spec.Millicpus = int64(req.GPUs+1) * 2000
		}
		if spec.MemoryMB == 0 {
			spec.MemoryMB = int64(req.GPUs+1) * 8192
		}
		if spec.VRAMGB == 0 {
			spec.VRAMGB = float64(req.GPUs) * 16
		}
		sess, err := s.p.CreateSession(req.User, spec)
		if err != nil {
			httpError(w, http.StatusConflict, "create session: %v", err)
			return
		}
		writeJSON(w, http.StatusCreated, viewOf(sess))
	default:
		httpError(w, http.StatusMethodNotAllowed, "GET or POST")
	}
}

// executeRequest is the POST /api/sessions/{id}/execute body.
type executeRequest struct {
	Code      string `json:"code"`
	TimeoutMS int64  `json:"timeout_ms"`
}

func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/api/sessions/")
	parts := strings.SplitN(rest, "/", 2)
	id := parts[0]
	if id == "" {
		httpError(w, http.StatusNotFound, "missing session id")
		return
	}
	action := ""
	if len(parts) == 2 {
		action = parts[1]
	}
	switch {
	case action == "" && r.Method == http.MethodGet:
		sess, ok := s.p.Session(id)
		if !ok {
			httpError(w, http.StatusNotFound, "unknown session %s", id)
			return
		}
		writeJSON(w, http.StatusOK, viewOf(sess))
	case action == "" && r.Method == http.MethodDelete:
		if err := s.p.CloseSession(id); err != nil {
			httpError(w, http.StatusNotFound, "%v", err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case action == "execute" && r.Method == http.MethodPost:
		s.handleExecute(w, r, id)
	case action == "events" && r.Method == http.MethodGet:
		s.handleEvents(w, r, id)
	default:
		httpError(w, http.StatusNotFound, "unknown route")
	}
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request, id string) {
	if _, ok := s.p.Session(id); !ok {
		httpError(w, http.StatusNotFound, "unknown session %s", id)
		return
	}
	var req executeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	if req.Code == "" {
		httpError(w, http.StatusBadRequest, "empty code")
		return
	}
	timeout := 60 * time.Second
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	reply, err := s.p.ExecuteSync(id, req.Code, timeout)
	if err != nil {
		httpError(w, http.StatusGatewayTimeout, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, reply)
}

// handleEvents streams the session's execute_reply messages as SSE.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, id string) {
	if _, ok := s.p.Session(id); !ok {
		httpError(w, http.StatusNotFound, "unknown session %s", id)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	ch, cancel := s.p.Subscribe(id)
	defer cancel()
	for {
		select {
		case <-r.Context().Done():
			return
		case msg := <-ch:
			data, err := msg.Encode()
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: execute_reply\ndata: %s\n\n", data)
			flusher.Flush()
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
