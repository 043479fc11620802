// The serving side of incremental re-patching: a live tenant grows
// its watch set (POST /v1/session, RequestHeader.MutateFrom) and the
// server answers from the base submission's artifact plus a replay of
// only the *added* sessions — the paper's "install a monitor without
// re-running everything", lifted to the multi-tenant service.
//
// The contract mirrors codepatch.Image: the merged artifact must be
// bit-identical (same ResultSHA) to a direct /v1/replay submission of
// the target spec, because per-session counting variables are
// independent of which subset they replay in. Every degraded path —
// injected fault, missing base artifact, spooled upload — falls back
// to that direct computation, so a mutation can be slower than
// planned but never wrong.
package serve

import "edb/internal/fault"

// computeMutated is the leader-side compute for a session-mutation
// submission. The incremental path needs two anchors: the raw trace
// bytes (to derive the base submission's content hash — content
// addressing is what pins the base artifact to the identical trace)
// and the base artifact itself. Missing either degrades to a full
// recompute of the target spec.
func (s *Server) computeMutated(tenant string, ts *tenantState, req *Request) (*Artifact, error) {
	var base *Artifact
	reason := "base-miss"
	switch {
	case fault.Inject(fault.SiteServeRepatch, tenant) != nil:
		reason = "fault"
	case req.TraceBytes == nil:
		// Spooled upload: the raw trace bytes were never resident, so
		// there is nothing to derive the base hash from.
		reason = "spooled"
	default:
		baseHdr := req.Header
		baseHdr.Sessions = *req.Header.MutateFrom
		baseHdr.MutateFrom = nil
		baseHdr.ContentSHA256 = ""
		base, _ = s.storeGet(tenant, ts, contentHash(req.TraceBytes, &baseHdr))
	}
	if base == nil {
		s.count("edb_serve_repatch_full_total", tenant, "reason", reason)
		return computeArtifact(tenant, req, nil)
	}
	art, err := computeArtifact(tenant, req, base)
	if err == nil {
		s.count("edb_serve_repatch_incremental_total", tenant)
	}
	return art, err
}
