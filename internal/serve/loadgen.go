package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// LoadgenOptions configures the self-load generator: Concurrency workers
// issuing Requests requests through the engine's full admission path.
type LoadgenOptions struct {
	// Requests is the total request count.
	Requests int
	// Concurrency is the number of concurrent clients (offered load).
	Concurrency int
	// NewRequest materializes request i. Required.
	NewRequest func(i int) *Request
	// RetryBackoff is slept after an ErrQueueFull rejection before retrying
	// (a well-behaved client's reaction to admission control). 0 defaults
	// to 200µs.
	RetryBackoff time.Duration
}

// LoadgenResult is one load-generation run's outcome.
type LoadgenResult struct {
	// Requests is the number issued; Errors the number that terminally
	// failed (queue-full rejections are retried, not counted here);
	// Retries the number of queue-full backoffs taken.
	Requests, Errors, Retries int
	// Wall is the whole run's duration.
	Wall time.Duration
	// Snapshot is the engine's metrics at the end of the run.
	Snapshot Snapshot
}

// RunLoadgen drives the engine with the configured load and blocks until
// every request has completed (or terminally failed). It measures the
// engine hermetically — no network, no sleeps besides queue-full backoff —
// so CI can assert throughput and latency bounds.
func RunLoadgen(e *Engine, opt LoadgenOptions) LoadgenResult {
	if opt.Concurrency < 1 {
		opt.Concurrency = 1
	}
	if opt.RetryBackoff <= 0 {
		opt.RetryBackoff = 200 * time.Microsecond
	}
	var next, errs, retries atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < opt.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= opt.Requests {
					return
				}
				req := opt.NewRequest(i)
				for {
					_, err := e.Do(context.Background(), req)
					if err == nil {
						break
					}
					if errors.Is(err, ErrQueueFull) {
						retries.Add(1)
						time.Sleep(opt.RetryBackoff)
						continue
					}
					errs.Add(1)
					break
				}
			}
		}()
	}
	wg.Wait()
	return LoadgenResult{
		Requests: opt.Requests,
		Errors:   int(errs.Load()),
		Retries:  int(retries.Load()),
		Wall:     time.Since(start),
		Snapshot: e.Metrics().Snapshot(),
	}
}
