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
	"math"
	"strconv"

	"repro/internal/core"
)

// Scope selects which flags a binary registers.
type Scope int

const (
	// Index adds the flag that shapes an index as it is built and is
	// fixed in its snapshot afterwards: -pathlen.
	Index Scope = 1 << iota
	// Query adds -workers, for binaries that answer queries.
	Query
)

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
		fs.Var((*count)(&f.set.Workers), "workers", "query and snapshot-load parallelism: this many `workers` (0 = GOMAXPROCS)")
	}
	if scope&Index != 0 {
		fs.Var((*count)(&f.set.PathLen), "pathlen", "when indexing: decompose small procedures over control-flow paths of this many `blocks` (0 = off)")
	}
	return f
}

// count is an int flag held to the snapshot codec's own bound on a count
// (core.CheckCount): a value a snapshot could not carry is refused as the
// flag is parsed, before any engine is built or anything is written.
type count int

func (c *count) String() string { return strconv.Itoa(int(*c)) }

func (c *count) Set(s string) error {
	n, err := strconv.ParseInt(s, 0, strconv.IntSize)
	if err != nil {
		return err
	}
	if err := core.CheckCount(int(n), math.MaxInt); err != nil {
		return err
	}
	*c = count(n)
	return nil
}

// Defaults returns the options a fresh index is built with when no
// flag is set.
func Defaults() core.Options {
	return core.Options{}
}

// Build returns the options for an index built by this process:
// Defaults with every explicitly-set flag applied.
func (f *Flags) Build() core.Options {
	return f.apply(Defaults(), false)
}

// Load returns the options for a snapshot loaded by this process: the
// snapshot's own with every explicitly-set flag applied, except
// -pathlen, which the snapshot fixes (a warning says so). It is an
// index.Override.
func (f *Flags) Load(snapshot core.Options) core.Options {
	return f.apply(snapshot, true)
}

func (f *Flags) apply(o core.Options, loading bool) core.Options {
	f.fs.Visit(func(fl *flag.Flag) {
		switch fl.Name {
		case "workers":
			o.Workers = f.set.Workers
		case "pathlen":
			if loading {
				fmt.Fprintf(f.fs.Output(), "warning: -%s is fixed at index time; the snapshot's value applies\n", fl.Name)
				return
			}
			o.PathLen = f.set.PathLen
		}
	})
	return o
}
