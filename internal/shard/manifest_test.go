package shard

import (
	"bytes"
	"context"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/recfile"
)

// framed wraps body in a valid header — how these tests reach the
// decoders past the checksum.
func framed(magic string, version int, body []byte) []byte {
	var b bytes.Buffer
	recfile.Write(&b, magic, version, body) // a bytes.Buffer write cannot fail
	return b.Bytes()
}

// TestManifestBadBodyRejected: a manifest whose checksum holds but whose
// body does not must be refused with its line, never panic — eshgw
// -manifest reads it before anything else.
func TestManifestBadBodyRejected(t *testing.T) {
	lineError := regexp.MustCompile(`^shard: manifest: line \d+: `)
	for _, tc := range []struct{ body, want string }{
		{"generation \"x\"\ntargets\n", `line 2: "targets" record has 0 fields, want at least 1`},
		{"generation \"x\"\ntargets 1\nshards\n", `line 3: "shards" record has 0 fields, want at least 1`},
		{"generation \"x\"\ntargets 0\nshards 1000000000000000\n", "line 3: shard count 1000000000000000 exceeds the 0 lines left"},
		// A version 1 body under this version's header: the union counts
		// and the strand maps are not records of this format.
		{"generation \"x\"\ntargets 1\ncounts 1\nshards 1\nshard 0 \"f\" \"c\"\nst 0\nss 0\n", `line 3: expected "shards" record, got "counts 1"`},
		// Nor is a version 2 body's opts record.
		{"generation \"x\"\nopts sigmoidk=0\ntargets 0\nshards 1\nshard 0 \"f\" \"c\"\nst 0\n", `line 2: expected "targets" record, got "opts sigmoidk=0"`},
		// Nor a version 3 body's checksum and target list.
		{"generation \"x\"\ntargets 0\nshards 1\nshard 0 \"f\" \"c\"\nst 0\n", `line 4: shard 0 target count "c"`},
		// Shard target counts that do not fit the manifest's.
		{"generation \"x\"\ntargets 3\nshards 2\nshard 0 \"f\" 2\nshard 1 \"g\" 2\n", `line 5: shard 1 target count "2" does not fit the 3 targets`},
		{"generation \"x\"\ntargets 3\nshards 1\nshard 0 \"f\" -1\n", `line 4: shard 0 target count "-1"`},
	} {
		_, err := ReadManifest(bytes.NewReader(framed(ManifestMagic, ManifestVersion, []byte(tc.body))))
		if err == nil || !strings.Contains(err.Error(), tc.want) || !lineError.MatchString(err.Error()) {
			t.Errorf("%q: error %v, want %q", tc.body, err, tc.want)
		}
	}
	// A target count the shards do not hold is refused without
	// allocating for it.
	huge := "generation \"x\"\ntargets 1000000000000000\nshards 1\nshard 0 \"f\" 1\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadManifest(bytes.NewReader(framed(ManifestMagic, ManifestVersion, []byte(huge))))
	runtime.ReadMemStats(&after)
	if want := "the shards hold 1 targets, the manifest says 1000000000000000"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("huge target count: error %v, want %q", err, want)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("huge target count: decoder allocated %d bytes", grew)
	}
}

// FuzzDecodeBodies hands the same body to both line-record decoders
// behind a valid header, so every input reaches the body grammar: neither
// may panic, and neither may allocate more than a small multiple of the
// input, whatever counts the body declares.
func FuzzDecodeBodies(f *testing.F) {
	ex := buildSmallDB(f).Export()
	var snap bytes.Buffer
	if _, err := index.SaveExportCtx(context.Background(), &snap, ex); err != nil {
		f.Fatal(err)
	}
	files := [][]byte{snap.Bytes()}
	// Manifests: the corpus split two ways, and four ways (some shard
	// then holds no target); and a shard snapshot, split positions and
	// all.
	for _, n := range []int{2, 4} {
		m, shardExs, err := Split(ex, n)
		if err != nil {
			f.Fatal(err)
		}
		var man bytes.Buffer
		if err := WriteManifest(&man, m); err != nil {
			f.Fatal(err)
		}
		files = append(files, man.Bytes())
		if n == 2 {
			var shard bytes.Buffer
			if _, err := index.SaveExportCtx(context.Background(), &shard, shardExs[1]); err != nil {
				f.Fatal(err)
			}
			files = append(files, shard.Bytes())
		}
	}
	for _, file := range files {
		_, body, _ := bytes.Cut(file, []byte("\n"))
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		snapshot := framed(index.Magic, index.Version, body)
		manifest := framed(ManifestMagic, ManifestVersion, body)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		index.LoadExportInfo(bytes.NewReader(snapshot))
		ReadManifest(bytes.NewReader(manifest))
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+64*len(body)); grew > limit {
			t.Fatalf("decoding a %d-byte body allocated %d bytes (limit %d)", len(body), grew, limit)
		}
	})
}
