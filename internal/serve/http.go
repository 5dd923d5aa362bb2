package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/tensor"
)

// maxRequestBytes bounds a /v1/predict body; far above any real snapshot at
// this repository's model scales.
const maxRequestBytes = 64 << 20

// PredictRequest is the JSON body of POST /v1/predict.
type PredictRequest struct {
	// ID is echoed in the response.
	ID string `json:"id,omitempty"`
	// Shape is [c, h, w]; Values holds the row-major field values.
	Shape  []int     `json:"shape"`
	Values []float64 `json:"values"`
	// Channels optionally names the global channel index of each input row
	// (partial channel sets; see Request.Channels).
	Channels []int `json:"channels,omitempty"`
}

// PredictResponse is the JSON answer of POST /v1/predict.
type PredictResponse struct {
	ID string `json:"id,omitempty"`
	// Shape is [C, H, W] on the model grid; Values the predicted field.
	Shape  []int     `json:"shape"`
	Values []float64 `json:"values"`
	// BatchSize is the micro-batch the request was served in; QueuedMs and
	// TotalMs the server-side latencies.
	BatchSize int     `json:"batch_size"`
	QueuedMs  float64 `json:"queued_ms"`
	TotalMs   float64 `json:"total_ms"`
	// Cached marks a response answered from the content-addressable cache
	// (Response.Cached).
	Cached bool `json:"cached,omitempty"`
}

// Handler returns the engine's HTTP surface:
//
//	POST /v1/predict  — one inference request (PredictRequest/PredictResponse)
//	GET  /v1/stats    — metrics Snapshot as JSON
//	GET  /metrics     — the same snapshot in Prometheus text format, plus
//	                    cache, swap, and build-info series
//	GET  /healthz     — 200 while the engine is live, 503 after shutdown
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", e.handlePredict)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, e.metrics.Snapshot())
	})
	mux.HandleFunc("GET /metrics", e.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if e.Err() != nil || e.closed() {
			http.Error(w, "engine stopped", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// closed reports whether Close has begun.
func (e *Engine) closed() bool {
	select {
	case <-e.quit:
		return true
	case <-e.dead:
		return true
	default:
		return false
	}
}

func (e *Engine) handlePredict(w http.ResponseWriter, r *http.Request) {
	servePredict(w, r, e.Do)
}

// servePredict decodes one PredictRequest, runs it through do (an engine's
// Do, or a router's tenant-scoped Do), and writes the answer — shared by
// the single-engine and router HTTP surfaces.
func servePredict(w http.ResponseWriter, r *http.Request, do func(context.Context, *Request) (Response, error)) {
	var preq PredictRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err := dec.Decode(&preq); err != nil {
		http.Error(w, fmt.Sprintf("decoding request: %v", err), http.StatusBadRequest)
		return
	}
	if len(preq.Shape) != 3 {
		http.Error(w, fmt.Sprintf("shape must be [c,h,w], got %v", preq.Shape), http.StatusBadRequest)
		return
	}
	for _, d := range preq.Shape {
		if d < 1 {
			http.Error(w, fmt.Sprintf("shape must be positive, got %v", preq.Shape), http.StatusBadRequest)
			return
		}
	}
	n, ok := elemCount(preq.Shape)
	if !ok {
		http.Error(w, fmt.Sprintf("shape %v has more elements than an int counts", preq.Shape), http.StatusBadRequest)
		return
	}
	if n != len(preq.Values) {
		http.Error(w, fmt.Sprintf("shape %v wants %d values, got %d", preq.Shape, n, len(preq.Values)), http.StatusBadRequest)
		return
	}
	req := &Request{
		ID:       preq.ID,
		Input:    tensor.FromSlice(preq.Values, preq.Shape...),
		Channels: preq.Channels,
	}
	resp, err := do(r.Context(), req)
	switch {
	case err == nil:
	case errors.Is(err, ErrQueueFull) || errors.Is(err, ErrTenantBusy):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case errors.Is(err, ErrUnknownModel):
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	case errors.Is(err, ErrClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case errors.Is(err, r.Context().Err()) && r.Context().Err() != nil:
		http.Error(w, err.Error(), http.StatusRequestTimeout)
		return
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, PredictResponse{
		ID:        resp.ID,
		Shape:     resp.Output.Shape,
		Values:    resp.Output.Data,
		BatchSize: resp.BatchSize,
		QueuedMs:  float64(resp.Queued) / float64(time.Millisecond),
		TotalMs:   float64(resp.Total) / float64(time.Millisecond),
		Cached:    resp.Cached,
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
