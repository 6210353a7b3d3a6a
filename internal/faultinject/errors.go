package faultinject

import (
	"errors"
	"syscall"
)

// transient marks an error as worth retrying. The pipeline's error
// taxonomy is transient or not: a transient failure (EIO under load,
// EINTR, momentary ENOSPC, a recovered panic, a killed stuck task) gets
// bounded retry with backoff (Retry); any other error fails its
// operation, and the caller's policy decides what follows — the store
// quarantines an artifact that fails to load and recomputes it.
type transient struct{ err error }

func (e *transient) Error() string { return e.err.Error() }
func (e *transient) Unwrap() error { return e.err }

// MarkTransient tags err as transient (nil stays nil).
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transient{err: err}
}

// IsTransient reports whether err is worth retrying: somewhere in its
// wrap chain it was marked transient, or it carries a retryable errno.
func IsTransient(err error) bool {
	var te *transient
	if errors.As(err, &te) {
		return true
	}
	var errno syscall.Errno
	if errors.As(err, &errno) {
		switch errno {
		case syscall.EIO, syscall.EINTR, syscall.EAGAIN, syscall.EBUSY, syscall.ENOSPC, syscall.ETIMEDOUT:
			return true
		}
	}
	return false
}
