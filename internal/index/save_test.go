package index_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/vcp"
)

// TestSaveRefusesRetiredSettings: an engine built at a size window or a
// path-strand block limit other than the engine's own (the ablation's, in
// process) cannot be saved, since no snapshot key holds either any more.
// Every saver refuses it naming the setting, and writes nothing: the
// stream stays empty, and a snapshot or shard file already at the target
// path is left as it was, with no temporary file beside it and no manifest.
func TestSaveRefusesRetiredSettings(t *testing.T) {
	var procs []*asm.Proc
	for _, src := range []string{
		"proc mix\n\tmov rax, rdi\n\timul rax, rsi\n\tadd rax, rdx\n\tshr rax, 3\n\txor rax, rdi\n\tret\nendp",
		"proc fold\n\tmov rax, rsi\n\tadd rax, rdi\n\timul rax, rdx\n\tshl rax, 2\n\tsub rax, rsi\n\tret\nendp",
	} {
		p, err := asm.ParseProc(src)
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
	}
	for _, tc := range []struct {
		opts core.Options
		want string
	}{
		{core.Options{VCP: vcp.Config{MinVars: 3, SizeRatio: 0.25}}, "cannot save vcpsizeratio=0.25: the §5.5 size window (VCP.SizeRatio) is retired"},
		{core.Options{VCP: vcp.Config{MinVars: 3}, PathLen: 2, PathMaxBlocks: 20}, "cannot save pathmaxblocks=20: the path-strand block limit (PathMaxBlocks) is retired"},
	} {
		db := core.NewDB(tc.opts)
		for _, p := range procs {
			if err := db.AddTarget(p); err != nil {
				t.Fatal(err)
			}
		}
		refused := func(saver string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: error %v, want %q", saver, err, tc.want)
			}
		}
		var buf bytes.Buffer
		_, err := index.SaveExportCtx(context.Background(), &buf, db.Export())
		refused("SaveExportCtx", err)
		if buf.Len() != 0 {
			t.Errorf("SaveExportCtx wrote %d bytes before refusing", buf.Len())
		}

		dir := t.TempDir()
		snap, man := filepath.Join(dir, "c.eshidx"), filepath.Join(dir, "c.manifest")
		const before = "the file that was there"
		for _, f := range []string{snap, man + ".0"} {
			if err := os.WriteFile(f, []byte(before), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		refused("SaveFile", index.SaveFile(snap, db))
		_, _, err = shard.SaveShards(man, db.Export(), 2)
		refused("SaveShards", err)
		for _, f := range []string{snap, man + ".0"} {
			if got, err := os.ReadFile(f); err != nil || string(got) != before {
				t.Errorf("%s after a refused save: %.40q, %v", filepath.Base(f), got, err)
			}
		}
		if left, _ := os.ReadDir(dir); len(left) != 2 {
			var names []string
			for _, e := range left {
				names = append(names, e.Name())
			}
			t.Errorf("directory after refused saves holds %v, want only the two files that were there", names)
		}
	}
}
