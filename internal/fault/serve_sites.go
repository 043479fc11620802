package fault

// Serving-path injection points (internal/serve). They live here with
// the pipeline sites so that fault.Sites() enumerates them, the edbvet
// faultsite pass keeps literals out of the serving code, and both
// chaos harnesses — the exp differential harness and the live-server
// drills in internal/serve — are forced to cover them. All serving
// sites are keyed by tenant ID: a plan armed for one tenant must never
// perturb another tenant's requests, which is exactly what the
// cross-tenant isolation drills assert.
var (
	// SiteServeDecode fires at the top of request-envelope decoding
	// (serve.DecodeRequest), modelling an input I/O error on the
	// upload. Keyed by tenant. Honors Transient and Permanent.
	SiteServeDecode = Register("serve.Decode")
	// SiteServeDecodeCorrupt flips one deterministic bit in a received
	// request envelope before it is decoded, modelling in-flight
	// corruption the CRC framing must catch. Keyed by tenant. Honors
	// Corrupt.
	SiteServeDecodeCorrupt = Register("serve.Decode.corrupt")
	// SiteServeAdmit fires inside the admission controller after a
	// request has been queued and granted, modelling a scheduling-layer
	// failure. Keyed by tenant. Honors Transient and Permanent.
	SiteServeAdmit = Register("serve.Admit")
	// SiteServeReplay fires at the top of each full replay attempt the
	// server dispatches (each retry is a separate invocation; an
	// incremental session mutation fires SiteServeRepatch instead).
	// Keyed by tenant. Honors Transient, Permanent, and Panic — the
	// server contains the panic and converts it into a typed error.
	SiteServeReplay = Register("serve.Replay")
	// SiteServeStoreRead fires at the top of an artifact-store lookup.
	// The store degrades an injected read failure into a cache miss
	// (the result is recomputed), so the request still succeeds. Keyed
	// by tenant. Honors Transient and Permanent.
	SiteServeStoreRead = Register("serve.Store.Read")
	// SiteServeStoreWrite fires at the top of an artifact-store commit.
	// Persisting a result is best-effort: an injected write failure is
	// degraded to an uncached success. Keyed by tenant. Honors
	// Transient and Permanent.
	SiteServeStoreWrite = Register("serve.Store.Write")
	// SiteServeRepatch fires at the top of an incremental session
	// mutation (POST /v1/session with mutate_from): the server degrades
	// an injected failure to a full recompute of the target spec, so
	// the request still succeeds with the bit-identical result hash.
	// Keyed by tenant. Honors Transient and Permanent.
	SiteServeRepatch = Register("serve.Repatch")
	// SiteServeRespond fires mid-stream, between the per-session result
	// lines and the response trailer, modelling a response-path I/O
	// error after the HTTP status has been committed. Keyed by tenant.
	// Honors Transient and Permanent.
	SiteServeRespond = Register("serve.Respond")
)
