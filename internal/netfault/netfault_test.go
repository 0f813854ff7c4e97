package netfault

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// echoServer answers every request with a fixed body and reports how
// many request bodies it received in full.
func echoServer(t *testing.T, respBody string) (*httptest.Server, *int, *int) {
	t.Helper()
	full := 0
	truncated := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, err := io.Copy(io.Discard, r.Body)
		if err != nil {
			truncated++
		} else {
			full++
		}
		// Best-effort response write; cut tests sever the wire.
		_, _ = io.WriteString(w, respBody)
	}))
	t.Cleanup(ts.Close)
	return ts, &full, &truncated
}

func TestTransportPassthroughCounts(t *testing.T) {
	ts, full, _ := echoServer(t, "ok")
	tr := NewTransport(nil, 1)
	client := &http.Client{Transport: tr}
	for i := 0; i < 3; i++ {
		resp, err := client.Post(ts.URL, "text/plain", strings.NewReader("hello"))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		// Drained above; close released the connection for reuse.
		_ = resp.Body.Close()
		if string(body) != "ok" {
			t.Fatalf("request %d: body %q", i, body)
		}
	}
	if tr.Requests() != 3 {
		t.Fatalf("Requests() = %d, want 3", tr.Requests())
	}
	if *full != 3 {
		t.Fatalf("server saw %d full bodies, want 3", *full)
	}
	if got := tr.Trace(); len(got) != 3 || !strings.HasPrefix(got[0], "POST ") {
		t.Fatalf("trace = %q", got)
	}
}

func TestTransportRefuseWindow(t *testing.T) {
	ts, _, _ := echoServer(t, "ok")
	tr := NewTransport(nil, 1)
	tr.AddFault(Fault{Mode: ModeRefuse, Nth: 2, Count: 2})
	client := &http.Client{Transport: tr}
	for i := 1; i <= 4; i++ {
		resp, err := client.Get(ts.URL)
		refused := i == 2 || i == 3
		if refused {
			if err == nil || !errors.Is(err, ErrRefused) || !errors.Is(err, ErrInjected) {
				t.Fatalf("request %d: err = %v, want ErrRefused", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}
}

func TestTransportPersistentRefuse(t *testing.T) {
	ts, _, _ := echoServer(t, "ok")
	tr := NewTransport(nil, 1)
	tr.AddFault(Fault{Mode: ModeRefuse, Nth: 1, Count: -1})
	client := &http.Client{Transport: tr}
	for i := 0; i < 5; i++ {
		if _, err := client.Get(ts.URL); !errors.Is(err, ErrRefused) {
			t.Fatalf("request %d: err = %v, want persistent ErrRefused", i, err)
		}
	}
}

func TestTransportCutRequest(t *testing.T) {
	ts, full, truncated := echoServer(t, "ok")
	tr := NewTransport(nil, 1)
	tr.AddFault(Fault{Mode: ModeCutRequest, Nth: 1, AfterBytes: 3})
	client := &http.Client{Transport: tr}
	_, err := client.Post(ts.URL, "text/plain", strings.NewReader("hello world"))
	if err == nil || !errors.Is(err, ErrRequestCut) {
		t.Fatalf("err = %v, want ErrRequestCut", err)
	}
	// The retry goes through untouched.
	resp, err := client.Post(ts.URL, "text/plain", strings.NewReader("hello world"))
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if *full != 1 {
		t.Fatalf("server saw %d full bodies, want exactly the retry", *full)
	}
	_ = truncated // the server may or may not observe the aborted first attempt
}

func TestTransportCutResponse(t *testing.T) {
	ts, _, _ := echoServer(t, "a longer response body")
	tr := NewTransport(nil, 1)
	tr.AddFault(Fault{Mode: ModeCutResponse, Nth: 1, AfterBytes: 4})
	client := &http.Client{Transport: tr}
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatalf("round trip should succeed before the body cut: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if !errors.Is(err, ErrResponseCut) {
		t.Fatalf("read err = %v, want ErrResponseCut", err)
	}
	if string(body) != "a lo" {
		t.Fatalf("torn prefix = %q, want first 4 bytes", body)
	}
}

func TestTransportStatusWithRetryAfter(t *testing.T) {
	ts, _, _ := echoServer(t, "ok")
	tr := NewTransport(nil, 1)
	tr.AddFault(Fault{Mode: ModeStatus, Nth: 1, Status: http.StatusServiceUnavailable, RetryAfterSec: 7})
	client := &http.Client{Transport: tr}
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatalf("synthesized response should not error: %v", err)
	}
	defer func() {
		// Drained below.
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After = %q, want 7", got)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "503") {
		t.Fatalf("body = %q", body)
	}
}

func TestTransportPathAndMethodMatch(t *testing.T) {
	ts, _, _ := echoServer(t, "ok")
	tr := NewTransport(nil, 1)
	tr.AddFault(Fault{Mode: ModeRefuse, Method: http.MethodPost, Path: "/commit", Nth: 1})
	client := &http.Client{Transport: tr}
	// A GET to the matching path and a POST elsewhere both pass.
	for _, f := range []func() (*http.Response, error){
		func() (*http.Response, error) { return client.Get(ts.URL + "/commit") },
		func() (*http.Response, error) { return client.Post(ts.URL+"/other", "text/plain", nil) },
	} {
		resp, err := f()
		if err != nil {
			t.Fatalf("non-matching request refused: %v", err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}
	if _, err := client.Post(ts.URL+"/commit", "text/plain", nil); !errors.Is(err, ErrRefused) {
		t.Fatalf("matching POST: err = %v, want ErrRefused", err)
	}
}

func TestTransportSeededCutDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		var offsets [2]int64
		for round := 0; round < 2; round++ {
			tr := NewTransport(nil, seed)
			tr.AddFault(Fault{Mode: ModeCutResponse, Nth: 1, AfterBytes: -1})
			d := tr.check(httptest.NewRequest(http.MethodGet, "/x", nil))
			if d.fault == nil {
				t.Fatal("fault did not fire")
			}
			offsets[round] = d.cut
		}
		if offsets[0] != offsets[1] {
			t.Fatalf("seed %d: offsets %d != %d, want deterministic draw", seed, offsets[0], offsets[1])
		}
	}
}
