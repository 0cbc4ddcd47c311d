package server

import (
	"context"

	"repro/internal/core"
)

// HoldEngine makes each of s's engine calls wait for a value on gate first,
// so that a test outside the package can keep a query in flight.
func HoldEngine(s *Server, gate <-chan struct{}) {
	query, partial := s.queryFn, s.partialFn
	s.queryFn = func(ctx context.Context, pl *core.QueryPlan) (*core.Report, error) {
		<-gate
		return query(ctx, pl)
	}
	s.partialFn = func(ctx context.Context, pl *core.QueryPlan) (*core.QueryPartial, error) {
		<-gate
		return partial(ctx, pl)
	}
}
