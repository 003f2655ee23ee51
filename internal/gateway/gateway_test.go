package gateway

import (
	"bufio"
	"bytes"
	"encoding/json"

	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"notebookos/internal/jupyter"
	"notebookos/internal/platform"
)

func newServer(t *testing.T) (*httptest.Server, *platform.Platform) {
	t.Helper()
	p, err := platform.New(platform.Config{Hosts: 4, TimeScale: 0.001, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(p))
	t.Cleanup(func() {
		srv.Close()
		p.Stop()
	})
	return srv, p
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

func TestHealthz(t *testing.T) {
	srv, _ := newServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
}

func TestSessionCRUDAndExecute(t *testing.T) {
	srv, _ := newServer(t)

	// Create.
	resp := postJSON(t, srv.URL+"/api/sessions", map[string]any{"user": "alice", "gpus": 1})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	created := decode[map[string]any](t, resp)
	id, _ := created["id"].(string)
	if id == "" {
		t.Fatalf("created = %v", created)
	}

	// List.
	resp, err := http.Get(srv.URL + "/api/sessions")
	if err != nil {
		t.Fatal(err)
	}
	list := decode[[]map[string]any](t, resp)
	if len(list) != 1 {
		t.Fatalf("list = %v", list)
	}

	// Get one.
	resp, err = http.Get(srv.URL + "/api/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	got := decode[map[string]any](t, resp)
	if got["id"] != id {
		t.Fatalf("get = %v", got)
	}

	// Execute.
	resp = postJSON(t, srv.URL+"/api/sessions/"+id+"/execute",
		map[string]any{"code": "x = 6 * 7\nprint(x)\n", "timeout_ms": 30000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("execute status = %d", resp.StatusCode)
	}
	reply := decode[jupyter.ExecuteReplyContent](t, resp)
	if reply.Status != "ok" || !strings.Contains(reply.Output, "42") {
		t.Fatalf("reply = %+v", reply)
	}

	// Cluster status shows the session.
	resp, err = http.Get(srv.URL + "/api/cluster")
	if err != nil {
		t.Fatal(err)
	}
	status := decode[platform.Status](t, resp)
	if status.Sessions != 1 || status.TotalGPUs != 32 {
		t.Fatalf("status = %+v", status)
	}

	// Delete.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/api/sessions/"+id, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	resp, err = http.Get(srv.URL + "/api/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestExecuteErrors(t *testing.T) {
	srv, _ := newServer(t)
	resp := postJSON(t, srv.URL+"/api/sessions/unknown/execute", map[string]any{"code": "x=1\n"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session execute status = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postJSON(t, srv.URL+"/api/sessions", map[string]any{"user": "bob", "gpus": 1})
	created := decode[map[string]any](t, resp)
	id := created["id"].(string)

	resp = postJSON(t, srv.URL+"/api/sessions/"+id+"/execute", map[string]any{"code": ""})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty code status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	r, _ := http.NewRequest(http.MethodPut, srv.URL+"/api/sessions", nil)
	resp2, err := http.DefaultClient.Do(r)
	if err != nil || resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT sessions = %d, %v", resp2.StatusCode, err)
	}
	resp2.Body.Close()
}

func TestEventsStream(t *testing.T) {
	srv, _ := newServer(t)
	resp := postJSON(t, srv.URL+"/api/sessions", map[string]any{"user": "carol", "gpus": 1})
	created := decode[map[string]any](t, resp)
	id := created["id"].(string)

	// Open the SSE stream, then trigger an execution.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/api/sessions/"+id+"/events", nil)
	stream, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	go func() {
		time.Sleep(100 * time.Millisecond)
		body := strings.NewReader(`{"code":"print(\"streamed\")\n"}`)
		if resp, err := http.Post(srv.URL+"/api/sessions/"+id+"/execute", "application/json", body); err == nil {
			resp.Body.Close()
		}
	}()

	scanner := bufio.NewScanner(stream.Body)
	deadline := time.After(20 * time.Second)
	found := make(chan string, 1)
	go func() {
		for scanner.Scan() {
			line := scanner.Text()
			if strings.HasPrefix(line, "data: ") {
				found <- strings.TrimPrefix(line, "data: ")
				return
			}
		}
	}()
	select {
	case data := <-found:
		var msg jupyter.Message
		if err := json.Unmarshal([]byte(data), &msg); err != nil {
			t.Fatalf("bad SSE payload: %v", err)
		}
		content, err := msg.ParseExecuteReply()
		if err != nil || !strings.Contains(content.Output, "streamed") {
			t.Fatalf("content = %+v, %v", content, err)
		}
	case <-deadline:
		t.Fatal("no SSE event")
	}
}

func TestEventsUnknownSession(t *testing.T) {
	srv, _ := newServer(t)
	resp, err := http.Get(srv.URL + "/api/sessions/ghost/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestCreateSessionOverCapacity(t *testing.T) {
	srv, _ := newServer(t)
	resp := postJSON(t, srv.URL+"/api/sessions", map[string]any{"user": "greedy", "gpus": 64})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d, want conflict", resp.StatusCode)
	}
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e["error"] == "" {
		t.Fatalf("error body = %v, %v", e, err)
	}
}
