package reqtrace

import (
	"log/slog"
	"sync/atomic"
)

// Structured logging for the serving path: engine lifecycle, resident
// evictions, SLO breaches, and snapshot trips emit through one package-wide
// *slog.Logger. Silent by default — slog.DiscardHandler drops everything
// before formatting (Enabled() == false, so callers don't even build the
// records) — and opt-in via SetLogger. Nothing on the request hot path logs:
// emission happens on lifecycle edges and render paths only.

var logger atomic.Pointer[slog.Logger]

func init() { SetLogger(nil) }

// SetLogger installs the logger the serving path emits through. Nil
// restores the silent default. Safe to call concurrently with logging.
func SetLogger(l *slog.Logger) {
	if l == nil {
		l = slog.New(slog.DiscardHandler)
	}
	logger.Store(l)
}

// L returns the current package logger (never nil).
func L() *slog.Logger { return logger.Load() }
