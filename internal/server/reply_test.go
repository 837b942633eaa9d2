package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// readOneLine reads a reply body and checks that it is one line of JSON:
// a single trailing newline and none before it.
func readOneLine(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	line, ok := bytes.CutSuffix(body, []byte("\n"))
	if !ok || bytes.IndexByte(line, '\n') >= 0 {
		t.Fatalf("reply is not one line of JSON: %q", body)
	}
	return line
}

// TestRepliesAreCanonical checks the reply format of the job endpoints: a
// fresh ?wait=1 submission, a cache hit of the same spec and GET
// /v1/jobs/{id}/result each answer with one line of compact JSON, and the
// result in it is Result.Canonical() of the job byte for byte.
func TestRepliesAreCanonical(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	spec := chaseSpec("16K", 7)
	p, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewRunner().Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Canonical()

	for _, cached := range []bool{false, true} {
		resp := postJSON(t, ts.URL+"/v1/jobs?wait=1", spec)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit (cached=%v): status %d", cached, resp.StatusCode)
		}
		var sub struct {
			Job    JobStatus       `json:"job"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(readOneLine(t, resp), &sub); err != nil {
			t.Fatal(err)
		}
		if sub.Job.Cached != cached {
			t.Fatalf("submit: job.cached = %v, want %v", sub.Job.Cached, cached)
		}
		if !bytes.Equal(sub.Result, want) {
			t.Errorf("submit (cached=%v): result member is not the canonical bytes:\n got %s\nwant %s",
				cached, sub.Result, want)
		}

		resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.Job.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result (cached=%v): status %d", cached, resp.StatusCode)
		}
		if got := readOneLine(t, resp); !bytes.Equal(got, want) {
			t.Errorf("result (cached=%v): body is not the canonical bytes:\n got %s\nwant %s",
				cached, got, want)
		}
	}
}

// BenchmarkSubmitCached times the reply path of a served job apart from
// its simulation: POST /v1/jobs?wait=1 of a spec whose result is already
// cached, through Server.Handler. Each op decodes the spec, compiles and
// hashes it, hits the result cache, registers the job and encodes the
// reply.
func BenchmarkSubmitCached(b *testing.B) {
	s := New(Options{Workers: 1})
	defer s.Shutdown(0)
	h := s.Handler()
	body, err := json.Marshal(chaseSpec("16K", 7))
	if err != nil {
		b.Fatal(err)
	}
	post := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	post() // run the job once; every later submission is a cache hit
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
	b.StopTimer()
	if m := s.MetricsSnapshot(); m.CacheHits != uint64(b.N) {
		b.Fatalf("cache hits = %d, want %d", m.CacheHits, b.N)
	}
}
