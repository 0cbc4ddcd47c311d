// Package engineflags is the one place the engine's command-line flags
// are declared. esh, eshd and eshcorpus register them here and turn the
// ones the user explicitly set into a core.Options before any engine
// exists: on top of the production defaults when an index is built
// fresh, on top of a snapshot's own options when one is loaded. An
// unset flag therefore means the same thing on every binary — "keep the
// base value" — and nothing reconfigures a database after construction.
package engineflags

import (
	"flag"
	"fmt"

	"repro/internal/core"
)

// Scope selects which flags a binary registers beyond the candidate
// selection flag (-lsh-min-containment) every engine binary takes.
type Scope int

const (
	// Index adds the flags that shape an index as it is built and are
	// fixed in its snapshot afterwards: -pathlen and -sigmoid-k.
	Index Scope = 1 << iota
	// Query adds -workers, for binaries that answer queries.
	Query
)

// indexTime names the Index-scope flags; Load leaves them to the
// snapshot.
var indexTime = map[string]bool{"pathlen": true, "sigmoid-k": true}

// Flags is the set of engine flags registered on one FlagSet.
type Flags struct {
	fs *flag.FlagSet
	// set holds each flag's parsed value; only fields whose flag was
	// explicitly set are ever read.
	set core.Options
}

// Register declares the engine flags on fs. Call Build or Load after
// fs has been parsed.
func Register(fs *flag.FlagSet, scope Scope) *Flags {
	f := &Flags{fs: fs}
	if scope&Query != 0 {
		fs.IntVar(&f.set.Workers, "workers", 0, "query and snapshot-load parallelism (0 = GOMAXPROCS)")
	}
	if scope&Index != 0 {
		fs.IntVar(&f.set.PathLen, "pathlen", 0, "when indexing: decompose small procedures over control-flow paths of this many blocks (0 = off)")
		fs.Float64Var(&f.set.SigmoidK, "sigmoid-k", 0, "when indexing: Esh sigmoid steepness (0 = paper's k=10)")
	}
	// Unset means the base value everywhere: Defaults for a fresh
	// index, the snapshot's own setting for a loaded one.
	fs.Float64Var(&f.set.LSHMinContainment, "lsh-min-containment", 0, "heuristic candidate tier at this estimated-containment threshold in [0, 1] (0 = sound tier only; rankings can change when > 0)")
	return f
}

// Defaults returns the options a fresh index is built with when no
// flag is set: the sound tier.
func Defaults() core.Options {
	return core.Options{}
}

// Build returns the options for an index built by this process:
// Defaults with every explicitly-set flag applied.
func (f *Flags) Build() (core.Options, error) {
	return f.apply(Defaults(), false)
}

// Load returns the options for a snapshot loaded by this process: the
// snapshot's own with every explicitly-set flag applied, except the
// index-time ones, which the snapshot fixes (a warning says so). It is
// an index.Override.
func (f *Flags) Load(snapshot core.Options) (core.Options, error) {
	return f.apply(snapshot, true)
}

func (f *Flags) apply(o core.Options, loading bool) (core.Options, error) {
	var err error
	f.fs.Visit(func(fl *flag.Flag) {
		if loading && indexTime[fl.Name] {
			fmt.Fprintf(f.fs.Output(), "warning: -%s is fixed at index time; the snapshot's value applies\n", fl.Name)
			return
		}
		switch fl.Name {
		case "workers":
			o.Workers = f.set.Workers
		case "pathlen":
			o.PathLen = f.set.PathLen
		case "sigmoid-k":
			o.SigmoidK = f.set.SigmoidK
			if e := core.CheckSigmoidK(o.SigmoidK); e != nil {
				err = fmt.Errorf("-sigmoid-k: %w", e)
			}
		case "lsh-min-containment":
			o.LSHMinContainment = f.set.LSHMinContainment
			if e := core.CheckMinContainment(o.LSHMinContainment); e != nil {
				err = fmt.Errorf("-lsh-min-containment: %w", e)
			}
		}
	})
	return o, err
}
