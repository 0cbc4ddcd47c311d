package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/shard"
	"repro/internal/telemetry"
)

// PartialResponse is the POST /v1/query/partial reply: one shard's
// contribution to a scattered query, for a gateway to merge. The shard
// identity inside lets the gateway check the reply against its manifest.
// On the wire it is a shard.Frame (AppendFrame / DecodePartialResponse);
// the JSON tags are for tools that dump a reply.
type PartialResponse struct {
	RequestID string         `json:"request_id,omitempty"`
	Partial   *shard.Partial `json:"partial"`
	// Trace is the per-query span tree, present with ?trace=1; the
	// gateway grafts it into its fan-out trace.
	Trace *telemetry.SpanData `json:"trace,omitempty"`
}

// AppendFrame appends the reply's wire form to dst.
func (pr *PartialResponse) AppendFrame(dst []byte) ([]byte, error) {
	f := shard.Frame{RequestID: pr.RequestID, Partial: pr.Partial}
	if pr.Trace != nil {
		var err error
		if f.Trace, err = json.Marshal(pr.Trace); err != nil {
			return dst, fmt.Errorf("encode trace: %w", err)
		}
	}
	return f.AppendTo(dst)
}

// DecodePartialResponse parses a /v1/query/partial 200-reply body. The
// result does not alias b.
func DecodePartialResponse(b []byte) (*PartialResponse, error) {
	f, err := shard.DecodeFrame(b)
	if err != nil {
		return nil, err
	}
	pr := &PartialResponse{RequestID: f.RequestID, Partial: f.Partial}
	if len(f.Trace) > 0 {
		pr.Trace = new(telemetry.SpanData)
		if err := json.Unmarshal(f.Trace, pr.Trace); err != nil {
			return nil, fmt.Errorf("decode frame trace: %w", err)
		}
	}
	return pr, nil
}

// framePool recycles reply buffers: a frame is a few hundred KB on a
// paper-sized corpus, written once and dropped.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// handlePartial runs the shard-local stages of a query and replies with
// the partial as a binary frame instead of finalized scores. The request
// is a /v1/query request, decoded by the same front door (method and top
// are checked, then ignored — ranking happens at the gateway), and shares
// its admission, timeout, and outcome accounting. Error replies are JSON,
// like everywhere else.
func (s *Server) handlePartial(w http.ResponseWriter, r *http.Request) {
	req, _, _, ok := s.front.DecodeQuery(w, r)
	if !ok {
		return
	}
	qp, root, ok := runQuery(s, w, r, req.Asm, "partial", "query_partial", s.partialFn)
	if !ok {
		return
	}
	resp := &PartialResponse{
		RequestID: RequestID(r.Context()),
		Partial:   shard.FromQueryPartial(qp, s.db.Shard()),
	}
	if s.store != nil {
		resp.Partial.Checksum = s.store.Snapshot().Checksum
	}
	if r.URL.Query().Get("trace") == "1" {
		resp.Trace = root.Snapshot()
	}
	buf := framePool.Get().(*[]byte)
	defer framePool.Put(buf)
	frame, err := resp.AppendFrame((*buf)[:0])
	if err != nil {
		Fail(w, http.StatusInternalServerError, "encode partial: %v", err)
		return
	}
	*buf = frame
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	_, _ = w.Write(frame) // a write error means the gateway went away
}
