package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/tensor"
)

// TestHTTPPredict round-trips a request through the JSON endpoint and pins
// the answer against the in-process Do path.
func TestHTTPPredict(t *testing.T) {
	a := testArch()
	e := startTest(t, Config{Ranks: 2, Replicas: 1, MaxBatch: 4, MaxWait: 2 * time.Millisecond}, FromArch(a))
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	x := testInput(a, 60, a.ImgH, a.ImgW)
	want, err := e.Do(context.Background(), &Request{Input: x.Clone()})
	if err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(PredictRequest{ID: "h1", Shape: x.Shape, Values: x.Data})
	resp, err := http.Post(srv.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", resp.StatusCode)
	}
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.ID != "h1" || pr.BatchSize < 1 || pr.TotalMs < pr.QueuedMs {
		t.Fatalf("bad response metadata: %+v", pr)
	}
	got := tensor.FromSlice(pr.Values, pr.Shape...)
	if d := tensor.MaxAbsDiff(got, want.Output); d != 0 {
		t.Fatalf("HTTP answer differs from in-process answer by %g", d)
	}
}

// TestHTTPStatsAndHealth pins the observability endpoints across the
// engine's lifecycle.
func TestHTTPStatsAndHealth(t *testing.T) {
	a := testArch()
	e, err := Start(Config{Ranks: 1, Replicas: 1, MaxBatch: 2}, FromArch(a))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	if _, err := e.Do(context.Background(), &Request{Input: testInput(a, 61, a.ImgH, a.ImgW)}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Completed != 1 {
		t.Fatalf("stats report %d completed, want 1", snap.Completed)
	}

	if resp, err = http.Get(srv.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d while live", resp.StatusCode)
	}

	if err := e.Close(); err != nil {
		t.Fatalf("clean Close returned %v", err)
	}
	if resp, err = http.Get(srv.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz status %d after Close, want 503", resp.StatusCode)
	}
}

// TestHTTPBadRequests pins the 4xx paths.
func TestHTTPBadRequests(t *testing.T) {
	a := testArch()
	e := startTest(t, Config{Ranks: 1, Replicas: 1, MaxBatch: 1}, FromArch(a))
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	for name, body := range map[string]string{
		"not-json":       "{",
		"bad-shape":      `{"shape":[2,2],"values":[1,2,3,4]}`,
		"numel-mismatch": `{"shape":[1,2,2],"values":[1]}`,
		"wrong-channels": `{"shape":[3,4,4],"values":` + zeros(48) + `}`,
		// c*h*w wraps to 0 and would match the empty value list.
		"numel-overflow": fmt.Sprintf(`{"shape":[%d,%d,%d],"values":[]}`, a.Channels, wrapExtent, wrapExtent),
	} {
		resp, err := http.Post(srv.URL+"/v1/predict", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	x := testInput(a, 3, a.ImgH, a.ImgW)
	if _, err := e.Do(context.Background(), &Request{Input: x}); err != nil {
		t.Fatalf("engine stopped serving after the refused requests: %v", err)
	}
}

// overflowBody is a valid full-grid request the model overflows on: the
// values v·(i%3−1) drive it to NaN or ±Inf for any |v| from 1e155 to 1e300.
func overflowBody(a model.Arch, v float64) []byte {
	x := tensor.New(a.Channels, a.ImgH, a.ImgW)
	for i := range x.Data {
		x.Data[i] = v * float64(i%3-1)
	}
	body, _ := json.Marshal(PredictRequest{Shape: x.Shape, Values: x.Data})
	return body
}

// postPredict runs one POST /v1/predict through h.
func postPredict(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
	return rec
}

// TestHTTPNonFinitePrediction: a prediction JSON cannot carry is answered
// with 422 and a body naming the cause, not with a 200 and an empty body.
func TestHTTPNonFinitePrediction(t *testing.T) {
	a := testArch()
	e := startTest(t, Config{Ranks: 2, Replicas: 1, MaxBatch: 4, MaxWait: time.Millisecond}, FromArch(a))
	h := e.Handler()
	for _, v := range []float64{1e155, -1e155, 1e300, -1e300} {
		rec := postPredict(h, overflowBody(a, v))
		if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(rec.Body.String(), "not finite") {
			t.Fatalf("v = %g: status %d, body %q; want 422 naming the non-finite prediction", v, rec.Code, rec.Body.String())
		}
	}
	x := testInput(a, 4, a.ImgH, a.ImgW)
	if _, err := e.Do(context.Background(), &Request{Input: x}); err != nil {
		t.Fatalf("engine stopped serving after the non-finite predictions: %v", err)
	}
}

// FuzzPredictBody drives POST /v1/predict with arbitrary bodies. The handler
// never panics and the engine stays alive; every 200 decodes into a
// PredictResponse whose values fill its shape, and every other status is a
// 4xx or 503. The seeds under testdata/fuzz run in plain go test.
func FuzzPredictBody(f *testing.F) {
	a := testArch()
	e := startTest(f, Config{Ranks: 2, Replicas: 1, MaxBatch: 4, MaxWait: time.Millisecond}, FromArch(a))
	h := e.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := postPredict(h, body)
		if err := e.Err(); err != nil {
			t.Fatalf("engine died on body %q: %v", body, err)
		}
		switch {
		case rec.Code == http.StatusOK:
			var pr PredictResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
				t.Fatalf("200 body does not decode: %v", err)
			}
			if n, ok := elemCount(pr.Shape); !ok || n != len(pr.Values) {
				t.Fatalf("200 answers shape %v with %d values", pr.Shape, len(pr.Values))
			}
		case rec.Code >= 400 && rec.Code < 500, rec.Code == http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
	})
}

// zeros renders a JSON array of n zeros.
func zeros(n int) string {
	b := []byte{'['}
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '0')
	}
	return string(append(b, ']'))
}
