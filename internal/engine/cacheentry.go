package engine

import (
	"encoding/json"
	"time"

	"repro/internal/api"
)

// Persisted results travel as api.CacheEntry records: a version stamp,
// the cache key (already embedding experiment id, preset hash and base
// seed), and the result in its persisted form. Every on-disk and
// fleet-wide tier (internal/resultplane) stores exactly this shape.
// Invalidation is by construction, never by mutation: a changed preset
// hashes to a new key, and a bumped code version changes the stamp, so
// older entries are never replayed.

// diskFormatVersion stamps the entry layout itself; bump on any change
// to api.CacheEntry. Callers compose their own code-version on top via
// CacheVersionTag.
const diskFormatVersion = "rescache1"

// CacheVersionTag composes the full version stamp cache entries carry:
// the entry-layout version plus the caller's code version. Every tier
// that persists entries must agree on it, so all derive it here.
func CacheVersionTag(version string) string {
	return diskFormatVersion + "/" + version
}

// ToCachedResult converts a Result into its persisted wire form,
// normalising Data to raw JSON so a replayed payload re-marshals
// byte-identically to the original.
func ToCachedResult(r Result) (api.CachedResult, error) {
	cr := api.CachedResult{
		Name: r.Name, Title: r.Title, Text: r.Text,
		Err: r.Err, Seed: r.Seed, DurationNS: r.Duration.Nanoseconds(),
	}
	switch d := r.Data.(type) {
	case nil:
	case json.RawMessage:
		cr.Data = d
	default:
		b, err := json.Marshal(d)
		if err != nil {
			return api.CachedResult{}, err
		}
		cr.Data = b
	}
	return cr, nil
}

// FromCachedResult converts a persisted result back into the scheduler's
// in-memory form.
func FromCachedResult(cr api.CachedResult) Result {
	r := Result{
		Name: cr.Name, Title: cr.Title, Text: cr.Text,
		Err: cr.Err, Seed: cr.Seed, Duration: time.Duration(cr.DurationNS),
	}
	if len(cr.Data) > 0 {
		r.Data = json.RawMessage(cr.Data)
	}
	return r
}
