package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/obs"
)

// Routing errors.
var (
	// ErrTenantBusy is the per-tenant admission rejection: the tenant has
	// reached its in-flight request bound. Other tenants are unaffected —
	// that isolation is the point.
	ErrTenantBusy = errors.New("serve: tenant in-flight limit reached")
	// ErrUnknownModel reports a request routed to a model name the router
	// does not serve.
	ErrUnknownModel = errors.New("serve: unknown model")
)

// RouterConfig sizes a Router.
type RouterConfig struct {
	// Ranks and Replicas shape the shared Host's mesh, exactly as in
	// Config: every model added to the router serves at this topology.
	Ranks    int
	Replicas int
	// TenantSlots bounds each tenant's concurrently in-flight requests
	// (admission control per tenant: beyond it, Do returns ErrTenantBusy).
	// 0 defaults to 32. Per-tenant overrides via SetTenantSlots.
	TenantSlots int
	// Trace, when non-nil, traces the shared host and every engine added to
	// the router (see Config.Trace for the row convention).
	Trace *obs.Tracer
}

// Router serves several models to several tenants over one shared Host —
// one dist.Mesh, many engines. Each model is an Engine (own queue, batcher,
// cache, metrics, hot swap); each tenant gets an in-flight bound and its
// own counters so one tenant's burst saturates its own slots, not the
// queue every other tenant depends on.
type Router struct {
	host  *Host
	slots int

	mu      sync.RWMutex
	engines map[string]*Engine // guarded by mu
	tenants map[string]*tenant // guarded by mu
}

// tenant is one traffic source's admission state.
type tenant struct {
	slots chan struct{} // semaphore: one slot per in-flight request

	mu        sync.Mutex
	admitted  uint64 // guarded by mu
	rejected  uint64 // guarded by mu
	completed uint64 // guarded by mu
	failed    uint64 // guarded by mu
}

// NewRouter builds the shared Host and an empty routing table.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.TenantSlots == 0 {
		cfg.TenantSlots = 32
	}
	if cfg.TenantSlots < 1 {
		return nil, fmt.Errorf("serve: router needs TenantSlots >= 1, got %d", cfg.TenantSlots)
	}
	h, err := NewHost(cfg.Ranks, cfg.Replicas, cfg.Trace)
	if err != nil {
		return nil, err
	}
	return &Router{
		host:    h,
		slots:   cfg.TenantSlots,
		engines: make(map[string]*Engine),
		tenants: make(map[string]*tenant),
	}, nil
}

// AddModel loads src onto the shared host and routes name to it. The
// engine config's topology is overridden by the host's; queue, batching,
// dtype, and cache settings are per model.
func (r *Router) AddModel(name string, cfg Config, src Source) (*Engine, error) {
	if name == "" {
		return nil, fmt.Errorf("serve: model name must be non-empty")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.engines[name]; ok {
		return nil, fmt.Errorf("serve: model %q already routed", name)
	}
	e, err := StartOn(r.host, cfg, src)
	if err != nil {
		return nil, err
	}
	r.engines[name] = e
	return e, nil
}

// RemoveModel stops routing name and closes its engine (the host keeps
// serving every other model).
func (r *Router) RemoveModel(name string) error {
	r.mu.Lock()
	e, ok := r.engines[name]
	delete(r.engines, name)
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	return e.Close()
}

// Engine returns the engine serving name.
func (r *Router) Engine(name string) (*Engine, bool) {
	r.mu.RLock()
	e, ok := r.engines[name]
	r.mu.RUnlock()
	return e, ok
}

// Models lists the routed model names (unordered).
func (r *Router) Models() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.engines))
	for name := range r.engines {
		names = append(names, name)
	}
	r.mu.RUnlock()
	return names
}

// Swap hot-swaps the named model (see Engine.Swap).
func (r *Router) Swap(name string, src Source) error {
	e, ok := r.Engine(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	return e.Swap(src)
}

// SetTenantSlots overrides one tenant's in-flight bound (creating the
// tenant if new). In-flight requests keep their old slots; the new bound
// applies to subsequent admissions.
func (r *Router) SetTenantSlots(name string, n int) {
	if n < 1 {
		n = 1
	}
	t := &tenant{slots: make(chan struct{}, n)}
	r.mu.Lock()
	r.tenants[name] = t
	r.mu.Unlock()
}

// tenantFor resolves (or creates, at the default bound) a tenant record.
func (r *Router) tenantFor(name string) *tenant {
	r.mu.RLock()
	t := r.tenants[name]
	r.mu.RUnlock()
	if t != nil {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t = r.tenants[name]; t == nil {
		t = &tenant{slots: make(chan struct{}, r.slots)}
		r.tenants[name] = t
	}
	return t
}

// Do routes one request from tenantName to modelName and waits for the
// response. Admission is two-staged: the tenant's in-flight bound first
// (ErrTenantBusy — the burst isolation), then the model engine's own queue
// (ErrQueueFull — the compute backpressure).
func (r *Router) Do(ctx context.Context, tenantName, modelName string, req *Request) (Response, error) {
	e, ok := r.Engine(modelName)
	if !ok {
		return Response{}, fmt.Errorf("%w: %q", ErrUnknownModel, modelName)
	}
	t := r.tenantFor(tenantName)
	select {
	case t.slots <- struct{}{}:
	default:
		t.mu.Lock()
		t.rejected++
		t.mu.Unlock()
		return Response{}, ErrTenantBusy
	}
	defer func() { <-t.slots }()
	t.mu.Lock()
	t.admitted++
	t.mu.Unlock()
	resp, err := e.Do(ctx, req)
	t.mu.Lock()
	if err != nil {
		t.failed++
	} else {
		t.completed++
	}
	t.mu.Unlock()
	return resp, err
}

// TenantSnapshot is one tenant's admission counters.
type TenantSnapshot struct {
	// Admitted and Rejected count requests past and refused at the tenant
	// bound; Completed and Failed split the admitted by outcome. Slots and
	// InFlight report the bound and its current occupancy.
	Admitted, Rejected uint64
	Completed, Failed  uint64
	Slots, InFlight    int
}

// TenantStats snapshots every tenant seen so far.
func (r *Router) TenantStats() map[string]TenantSnapshot {
	r.mu.RLock()
	out := make(map[string]TenantSnapshot, len(r.tenants))
	for name, t := range r.tenants {
		t.mu.Lock()
		out[name] = TenantSnapshot{
			Admitted:  t.admitted,
			Rejected:  t.rejected,
			Completed: t.completed,
			Failed:    t.failed,
			Slots:     cap(t.slots),
			InFlight:  len(t.slots),
		}
		t.mu.Unlock()
	}
	r.mu.RUnlock()
	return out
}

// Close closes every engine (draining their in-flight work) and then the
// shared host. Idempotent through the engines' and host's own idempotence;
// returns the host's terminal error.
func (r *Router) Close() error {
	r.mu.Lock()
	engines := make([]*Engine, 0, len(r.engines))
	for name, e := range r.engines {
		engines = append(engines, e)
		delete(r.engines, name)
	}
	r.mu.Unlock()
	for _, e := range engines {
		//lint:ignore commerr engine close errors surface as the host's terminal error below
		e.Close()
	}
	return r.host.Close()
}

// Handler returns the router's HTTP surface:
//
//	POST /v1/models/{model}/predict — one request; tenant from X-Tenant
//	                                  (default "default"), 429 + Retry-After
//	                                  on tenant or queue rejection
//	GET  /v1/models/{model}/stats   — that engine's metrics Snapshot
//	GET  /v1/models                 — routed model names
//	GET  /v1/tenants                — per-tenant admission counters
//	GET  /metrics                   — Prometheus text format: every model's
//	                                  series labeled model="name", tenant
//	                                  counters labeled tenant="name"
//	GET  /healthz                   — 200 while the host is live
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/models/{model}/predict", func(w http.ResponseWriter, req *http.Request) {
		model := req.PathValue("model")
		tenantName := req.Header.Get("X-Tenant")
		if tenantName == "" {
			tenantName = "default"
		}
		servePredict(w, req, func(ctx context.Context, sreq *Request) (Response, error) {
			return r.Do(ctx, tenantName, model, sreq)
		})
	})
	mux.HandleFunc("GET /v1/models/{model}/stats", func(w http.ResponseWriter, req *http.Request) {
		e, ok := r.Engine(req.PathValue("model"))
		if !ok {
			http.Error(w, ErrUnknownModel.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, e.Metrics().Snapshot())
	})
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, r.Models())
	})
	mux.HandleFunc("GET /v1/tenants", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, r.TenantStats())
	})
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		if r.host.Err() != nil {
			http.Error(w, "host stopped", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}
