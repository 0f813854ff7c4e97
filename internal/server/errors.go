package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"numarck/internal/checkpoint"
	"numarck/internal/core"
)

// errBadRequest marks malformed request input (unparsable or unknown
// query parameters, a body that is not what the endpoint takes); it
// maps to 400 alongside the storage layer's ErrBadVariable.
var errBadRequest = errors.New("server: bad request")

// ErrCommitConflict reports a commit for an iteration that is already
// journaled with a different payload: not a retry of the same request
// but two distinct states contending for one chain slot. It maps to
// 409 and is never retryable — retrying would re-send the same losing
// payload.
var ErrCommitConflict = errors.New("server: iteration already committed with a different payload")

// ErrUploadGap reports an upload range whose offset is beyond the
// session's contiguous received prefix: a range went missing, so the
// session cannot accept this one. It maps to 409; the client re-reads
// the session status and resumes from Received.
var ErrUploadGap = errors.New("server: upload range beyond received prefix")

// APIError is the structured error body every non-2xx response
// carries. Clients branch on Class; Detail is the wrapped Go error
// chain for humans.
type APIError struct {
	// Status is the HTTP status code the error was sent with.
	Status int `json:"status"`
	// Class is the stable machine-readable error class (see the
	// mapping table in classify).
	Class string `json:"error"`
	// Detail is the human-readable error chain.
	Detail string `json:"detail"`
	// HolderPID and HolderAgeMs describe the current writer-lock
	// holder on a 423 response: which process holds the store and for
	// how long, straight from checkpoint.LockHeldError.
	HolderPID   int   `json:"holder_pid,omitempty"`
	HolderAgeMs int64 `json:"holder_age_ms,omitempty"`
	// RetryAfterSec mirrors the Retry-After header on 423/429/503.
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
}

// Error renders the API error for client-side error chains.
func (e *APIError) Error() string {
	return "server: " + strconv.Itoa(e.Status) + " " + e.Class + ": " + e.Detail
}

// OperatorMessage renders err the way a CLI should show it to a human
// operator: a decoded API error surfaces its status, class, and detail
// plus an actionable hint — the writer-lock holder's PID and age on
// 423, or the server's Retry-After on 429/503 — and a retry give-up
// surfaces the attempt count with its final cause. Local (non-HTTP)
// lock contention gets the same holder hint; every other error renders
// as its plain Error string.
func OperatorMessage(err error) string {
	var re *RetryExhaustedError
	if errors.As(err, &re) {
		return fmt.Sprintf("gave up after %d attempts; last error: %s", re.Attempts, OperatorMessage(re.Last))
	}
	var ae *APIError
	if errors.As(err, &ae) {
		msg := fmt.Sprintf("server rejected the request: %d %s: %s", ae.Status, ae.Class, ae.Detail)
		switch {
		case ae.HolderPID > 0:
			age := time.Duration(ae.HolderAgeMs) * time.Millisecond
			msg += fmt.Sprintf(" (writer lock held by pid %d for %s; retry shortly or check that process)", ae.HolderPID, age)
		case ae.RetryAfterSec > 0:
			msg += fmt.Sprintf(" (retry after %ds)", ae.RetryAfterSec)
		}
		return msg
	}
	var lh *checkpoint.LockHeldError
	if errors.As(err, &lh) {
		return fmt.Sprintf("%s (holder pid %d, held for %s; retry shortly or check that process)",
			err, lh.PID, lh.Age().Round(time.Millisecond))
	}
	return err.Error()
}

// classify maps a typed error from the storage and pipeline layers to
// its HTTP rendering. The table:
//
//	checkpoint.ErrBadVariable        400 bad_request      invalid tenant/series/iteration, or ?raw=1 bytes the store rejects
//	core.ErrNonFinite                400 bad_request      a delta body holds NaN or Inf
//	checkpoint.ErrNotFound           404 not_found        no such store, variable, or iteration
//	checkpoint.ErrChain              409 chain_conflict   commit would break (or read crosses) a chain gap
//	ErrCommitConflict                409 commit_conflict  iteration already committed with a different payload
//	ErrUploadGap                     409 upload_gap       upload range starts beyond the received prefix
//	ErrTooLarge                      413 too_large        heavier than the governor's total capacity
//	ErrOverCapacity                  429 over_capacity    governor full; retry after the hint
//	checkpoint.ErrLocked             423 store_locked     writer lock held outside this daemon (holder PID/age attached)
//	checkpoint.ErrCorrupt/Truncated  500 corrupt_store    stored bytes failed CRC/parse (fail-closed read)
//	ErrDraining / checkpoint.ErrClosed 503 draining       daemon is shutting down; retry elsewhere/later
//	anything else                    500 internal
//
// Corrupt-store reads are 500, not 4xx: the client's request was
// valid, the server's data is damaged — ?recover=1 is the opt-in that
// turns that into a 200 with a partial-data report.
func classify(err error) *APIError {
	var lh *checkpoint.LockHeldError
	switch {
	case errors.Is(err, errBadRequest):
		return &APIError{Status: http.StatusBadRequest, Class: "bad_request", Detail: err.Error()}
	case errors.Is(err, checkpoint.ErrBadVariable), errors.Is(err, core.ErrNonFinite):
		return &APIError{Status: http.StatusBadRequest, Class: "bad_request", Detail: err.Error()}
	case errors.Is(err, checkpoint.ErrNotFound):
		return &APIError{Status: http.StatusNotFound, Class: "not_found", Detail: err.Error()}
	case errors.Is(err, checkpoint.ErrChain):
		return &APIError{Status: http.StatusConflict, Class: "chain_conflict", Detail: err.Error()}
	case errors.Is(err, ErrCommitConflict):
		return &APIError{Status: http.StatusConflict, Class: "commit_conflict", Detail: err.Error()}
	case errors.Is(err, ErrUploadGap):
		return &APIError{Status: http.StatusConflict, Class: "upload_gap", Detail: err.Error()}
	case errors.Is(err, ErrTooLarge):
		return &APIError{Status: http.StatusRequestEntityTooLarge, Class: "too_large", Detail: err.Error()}
	case errors.Is(err, ErrOverCapacity):
		return &APIError{Status: http.StatusTooManyRequests, Class: "over_capacity", Detail: err.Error(), RetryAfterSec: 1}
	case errors.As(err, &lh):
		return &APIError{
			Status: http.StatusLocked, Class: "store_locked", Detail: err.Error(),
			HolderPID: lh.PID, HolderAgeMs: lh.Age().Milliseconds(), RetryAfterSec: 1,
		}
	case errors.Is(err, checkpoint.ErrLocked):
		return &APIError{Status: http.StatusLocked, Class: "store_locked", Detail: err.Error(), RetryAfterSec: 1}
	case errors.Is(err, ErrDraining), errors.Is(err, checkpoint.ErrClosed):
		return &APIError{Status: http.StatusServiceUnavailable, Class: "draining", Detail: err.Error(), RetryAfterSec: 1}
	case errors.Is(err, checkpoint.ErrCorrupt), errors.Is(err, checkpoint.ErrTruncated):
		return &APIError{Status: http.StatusInternalServerError, Class: "corrupt_store", Detail: err.Error()}
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client went away mid-request; 499-style, but stdlib has
		// no code for it — a 503 tells retrying proxies the truth.
		return &APIError{Status: http.StatusServiceUnavailable, Class: "canceled", Detail: err.Error()}
	default:
		return &APIError{Status: http.StatusInternalServerError, Class: "internal", Detail: err.Error()}
	}
}

// writeError renders err as its mapped status plus JSON body, setting
// Retry-After when the class carries a hint. Paths in the detail are
// rendered relative to the registry root, which holds the tenants'
// stores and the spool directory: a client learns which file failed,
// not where the daemon keeps its data. It must be called before any
// body bytes have been written.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	ae := classify(err)
	ae.Detail = strings.ReplaceAll(ae.Detail, filepath.Clean(s.reg.Root())+string(filepath.Separator), "")
	if ae.RetryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(ae.RetryAfterSec))
	}
	writeJSON(w, ae.Status, ae)
}

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Response write failures mean the client is gone; nothing to do.
	_ = json.NewEncoder(w).Encode(v)
}
