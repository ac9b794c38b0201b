package faas

import (
	"errors"

	"groundhog/internal/faults"
)

// Sentinel errors for the failure kinds callers branch on. Every error the
// platform returns wraps one of these (or a lower layer's error) with %w, so
// callers use errors.Is instead of string matching.
var (
	// ErrNoContainers reports an invoke against a deployment whose pool is
	// empty (scaled to zero, or drained by crashes).
	ErrNoContainers = errors.New("faas: no containers")
	// ErrImageEvicted reports an adopted snapshot image whose frames were
	// already released.
	ErrImageEvicted = errors.New("faas: snapshot image evicted")
	// ErrImageCorrupt reports a snapshot image that failed its integrity
	// check; the platform evicts it and falls back to the full pipeline.
	ErrImageCorrupt = errors.New("faas: snapshot image failed integrity check")
	// ErrColdStartFailed reports a cold start that failed even after the
	// retry budget was spent. Transient: the caller may retry later.
	ErrColdStartFailed = errors.New("faas: cold start failed")
	// ErrContainerCrashed reports a container that died mid-request: no
	// response was produced, the container was torn down, and the request
	// may be retried on another container.
	ErrContainerCrashed = errors.New("faas: container crashed mid-request")
)

// IsTransient reports whether err is a failure a client or dispatcher can
// reasonably retry: an empty pool that a scale-up will fill, a cold start
// that exhausted its retry budget, a crashed container, or any injected
// fault. Permanent errors (bad configuration, programming errors) are not
// transient and must propagate. internal/server maps transient invoke
// failures to 503 + Retry-After.
func IsTransient(err error) bool {
	return errors.Is(err, ErrNoContainers) ||
		errors.Is(err, ErrColdStartFailed) ||
		errors.Is(err, ErrContainerCrashed) ||
		errors.Is(err, faults.ErrInjected)
}
