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
		{"generation \"x\"\nopts\ntargets\n", `line 3: "targets" record has 0 fields, want at least 1`},
		{"generation \"x\"\nopts\ntargets 1\ncounts 0\nshards\n", `line 5: "shards" record has 0 fields, want at least 1`},
		{"generation \"x\"\nopts\ntargets 0\ncounts 0\nshards 1000000000000000\n", "line 5: shard count 1000000000000000 exceeds the 0 lines left"},
		// A float option the engine cannot score with: a NaN also never
		// equals a replica's value, so every fleet check would fail on it.
		{"generation \"x\"\nopts sigmoidk=NaN lshmincont=0\n", `line 2: bad option "sigmoidk=NaN"`},
		{"generation \"x\"\nopts sigmoidk=+Inf lshmincont=0\n", `line 2: bad option "sigmoidk=+Inf"`},
		{"generation \"x\"\nopts sigmoidk=-1 lshmincont=0\n", `line 2: bad option "sigmoidk=-1"`},
		{"generation \"x\"\nopts sigmoidk=0 lshmincont=NaN\n", `line 2: bad option "lshmincont=NaN"`},
		{"generation \"x\"\nopts sigmoidk=0 lshmincont=Inf\n", `line 2: bad option "lshmincont=Inf"`},
		{"generation \"x\"\nopts sigmoidk=0 lshmincont=2\n", `line 2: bad option "lshmincont=2"`},
	} {
		_, err := ReadManifest(bytes.NewReader(framed(ManifestMagic, ManifestVersion, []byte(tc.body))))
		if err == nil || !strings.Contains(err.Error(), tc.want) || !lineError.MatchString(err.Error()) {
			t.Errorf("%q: error %v, want %q", tc.body, err, tc.want)
		}
	}
	// A target count nothing lists is refused without allocating for it.
	huge := "generation \"x\"\nopts\ntargets 1000000000000000\ncounts 0\nshards 1\nshard 0 \"f\" \"c\"\nst 1 0\nss 0\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadManifest(bytes.NewReader(framed(ManifestMagic, ManifestVersion, []byte(huge))))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "target 1 assigned to no shard") {
		t.Errorf("huge target count: error %v, want target 1 assigned to no shard", err)
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
	var snap, man bytes.Buffer
	if _, err := index.SaveExportCtx(context.Background(), &snap, ex); err != nil {
		f.Fatal(err)
	}
	m, _, err := Split(ex, 2)
	if err != nil {
		f.Fatal(err)
	}
	if err := WriteManifest(&man, m); err != nil {
		f.Fatal(err)
	}
	for _, file := range [][]byte{snap.Bytes(), man.Bytes()} {
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
