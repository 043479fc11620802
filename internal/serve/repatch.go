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

import (
	"fmt"

	"edb/internal/fault"
	"edb/internal/sessions"
	"edb/internal/sim"
)

// computeMutated is the leader-side compute for a session-mutation
// submission. The incremental path needs two anchors: the materialised
// trace bytes (to derive the base submission's content hash — content
// addressing is what pins the base artifact to the identical trace)
// and the base artifact itself. Missing either degrades to a full
// recompute of the target spec.
func (s *Server) computeMutated(tenant string, ts *tenantState, req *Request) (*Artifact, error) {
	if err := fault.Inject(fault.SiteServeRepatch, tenant); err != nil {
		s.count("edb_serve_repatch_full_total", tenant, "reason", "fault")
		return computeArtifact(tenant, req)
	}
	if req.Trace == nil {
		// Spooled upload: the raw trace bytes were never resident, so
		// there is nothing to derive the base hash from.
		s.count("edb_serve_repatch_full_total", tenant, "reason", "spooled")
		return computeArtifact(tenant, req)
	}
	baseHdr := req.Header
	baseHdr.Sessions = *req.Header.MutateFrom
	baseHdr.MutateFrom = nil
	baseHdr.ContentSHA256 = ""
	base, ok := s.storeGet(tenant, ts, contentHash(req.TraceBytes, &baseHdr))
	if !ok {
		s.count("edb_serve_repatch_full_total", tenant, "reason", "base-miss")
		return computeArtifact(tenant, req)
	}
	art, err := mutateArtifact(req, base)
	if err != nil {
		return nil, err
	}
	s.count("edb_serve_repatch_incremental_total", tenant)
	return art, nil
}

// mutateArtifact merges the base artifact with a replay of only the
// sessions the target spec adds. Rows are matched by original
// discovery index — the stable session identity across subset
// selections — and the merged result is sealed with the same
// resultHash a direct submission would compute.
func mutateArtifact(req *Request, base *Artifact) (*Artifact, error) {
	full := sessions.Discover(req.Trace)
	chosen, origIndex, err := req.Header.Sessions.Select(full)
	if err != nil {
		return nil, err
	}
	baseRows := make(map[int]*SessionResult, len(base.Sessions))
	for i := range base.Sessions {
		baseRows[base.Sessions[i].Index] = &base.Sessions[i]
	}
	rows := make([]SessionResult, len(chosen))
	var added []sessions.Session
	var addedPos []int
	for i := range chosen {
		if row, ok := baseRows[origIndex[i]]; ok {
			rows[i] = *row
		} else {
			added = append(added, chosen[i])
			addedPos = append(addedPos, i)
		}
	}
	if len(added) > 0 {
		subset := sessions.NewSet(added, full.NumObjects())
		out, err := sim.RunWithOptions(req.Trace, subset, sim.Options{})
		if err != nil {
			return nil, fmt.Errorf("serve: replay: %w", err)
		}
		for k := range added {
			sess := &subset.Sessions[k]
			rows[addedPos[k]] = SessionResult{
				Index:    origIndex[addedPos[k]],
				Type:     sess.Type.String(),
				Label:    sess.Label(),
				Counting: out.PerSession[k],
			}
		}
	}
	art := &Artifact{
		RequestSHA: req.Hash,
		Program:    req.Trace.Program,
		NumEvents:  len(req.Trace.Events),
		Sessions:   rows,
	}
	art.ResultSHA = resultHash(rows)
	return art, nil
}
