package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/shard"
)

// PartialResponse is the POST /v1/query/partial reply: one shard's
// contribution to a scattered query, for a gateway to merge, with the
// request ID and, under ?trace=1, the span tree as JSON. It is the frame
// itself; the shard slot inside lets the gateway check the reply against
// its manifest.
type PartialResponse = shard.Frame

// framePool recycles reply buffers: a frame is tens of KB on a
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
	f := PartialResponse{RequestID: RequestID(r.Context()), Partial: shard.FromQueryPartial(qp, s.db.Shard())}
	var err error
	if r.URL.Query().Get("trace") == "1" {
		f.Trace, err = json.Marshal(root.Snapshot())
	}
	buf := framePool.Get().(*[]byte)
	defer framePool.Put(buf)
	frame := (*buf)[:0]
	if err == nil {
		frame, err = f.AppendTo(frame)
	}
	qp.Release() // the frame holds copies of everything the partial's slabs did
	if err != nil {
		Fail(w, http.StatusInternalServerError, "encode partial: %v", err)
		return
	}
	*buf = frame
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	_, _ = w.Write(frame) // a write error means the gateway went away
}
