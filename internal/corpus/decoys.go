package corpus

import (
	"fmt"
	"strings"
)

// Decoy packages stand in for the randomly selected Coreutils (and other
// open-source) procedures that fill the paper's 1500-procedure target
// database. Function names follow the paper's Figure 6 where it names
// specific queries (parse_integer, dev_ino_compare, default_format,
// print_stat, cached_umask, create_hard_link, i_write, compare_nodes,
// ftp_syst, ff_rv34_decode_init_thread_copy).

// Package is one decoy source package: all functions compile into the
// target database under every toolchain.
type Package struct {
	Name string // e.g. "coreutils-8.23/stat"
	Src  string
}

// Decoys returns the decoy package library.
func Decoys() []Package {
	pkgs := []Package{
		{Name: "coreutils-8.23/parse", Src: pkgParse},
		{Name: "coreutils-8.23/stat", Src: pkgStat},
		{Name: "coreutils-8.23/ln", Src: pkgLn},
		{Name: "coreutils-8.23/sort", Src: pkgSort},
		{Name: "coreutils-8.23/od", Src: pkgOd},
		{Name: "coreutils-8.23/cksum", Src: pkgCksum},
		{Name: "coreutils-8.23/expr", Src: pkgExpr},
		{Name: "coreutils-8.23/tr", Src: pkgTr},
		{Name: "coreutils-8.23/du", Src: pkgDu},
		{Name: "wget-1.8/ftp", Src: pkgWgetFtp},
		{Name: "ffmpeg-2.4.6/rv34", Src: pkgFfmpegRv34},
		{Name: "bash-4.3/subst", Src: pkgBashSubst},
		{Name: "openssl-1.0.1f/buf", Src: pkgOpensslBuf},
		{Name: "qemu-2.3/chardev", Src: pkgQemuChardev},
		{Name: "ntp-4.2.7/refclock", Src: pkgNtpRefclock},
	}
	pkgs = append(pkgs, Decoys2()...)
	pkgs = append(pkgs, Decoys3()...)
	return append(pkgs, templatePackages()...)
}

// templatePackages reproduces the DEFINE_SORT_FUNCTIONS macro pattern the
// paper's §6.6 discusses (ls.c): families of near-identical "template"
// procedures that differ only in the comparison they delegate to. These
// are the known hard case for strand-based matching.
func templatePackages() []Package {
	keys := []string{"ctime", "mtime", "atime", "size", "name", "extension"}
	var b strings.Builder
	for i, key := range keys {
		fmt.Fprintf(&b, `
func strcmp_%s(a, b) {
	return cmp_%s(a, b, %d);
}
func rev_strcmp_%s(a, b) {
	return 0 - cmp_%s(a, b, %d);
}
`, key, key, 8*(i+1), key, key, 8*(i+1))
	}
	return []Package{{Name: "coreutils-8.23/ls-templates", Src: b.String()}}
}

// GeneratedVariants returns n additional synthetic decoy packages built
// from parameterized templates (different constants, field offsets and
// loop structures), used to grow the target database toward the paper's
// 1500-procedure scale without hand-writing every source. Every
// constant is a distinct function of the variant index — never a small
// modulus — so variants do not collapse into shared canonical strands:
// unique-strand count, the quantity query cost actually scales with,
// grows near-linearly in n (which is what makes this the corpus-growth
// knob behind the corpus-scaling benchmark, BenchmarkQueryScale).
func GeneratedVariants(n int) []Package {
	var out []Package
	for i := 0; i < n; i++ {
		// Vary constants so every variant is a distinct computation,
		// and keep the straight-line blocks chunky: MinHash signatures
		// over tiny feature sets collide with everything, which would
		// turn corpus growth into candidate-set growth and defeat the
		// point of the decoys.
		poly := 0x21 + 2*i
		shift := 3 + i%5
		mask := 0x11 + 3*i
		off := 8 * (i + 1)
		stride := 8*(i%6) + 16
		seed := 0x9E37 + 31*i
		fold := 5 + i%7
		k1 := 0x5BD1 + 101*i
		k2 := 0xC2B2 + 67*i
		src := fmt.Sprintf(`
func digest_v%d(buf, len) {
	var h = %d;
	var t = %d;
	var i = 0;
	while (i < len) {
		h = h * %d + load8(buf + i);
		h = h ^ (h >>u %d);
		t = t + (h ^ %d);
		t = t * %d;
		h = h + (t >>u %d);
		i = i + 1;
	}
	h = h ^ (t * %d);
	h = h * %d;
	h = h ^ (h >>u %d);
	return h & 0x7FFFFFFFFFFFFFFF;
}
func scan_v%d(buf, len, needle) {
	var i = 0;
	var hits = 0;
	var run = %d;
	while (i < len) {
		var c = load8(buf + i);
		c = (c * %d) ^ (run >>u %d);
		run = run + (c & %d);
		if ((c & %d) == needle) {
			hits = hits + (run & %d);
			run = run ^ %d;
		}
		i = i + 1;
	}
	return hits + (run * %d);
}
func pack_v%d(rec, a, b) {
	var chk = (a * %d) ^ (b * %d);
	store64(rec, a + %d);
	store64(rec + %d, b ^ %d);
	store64(rec + %d, chk);
	store32(rec + %d, (a ^ b) & 0xFFFFFFFF);
	store32(rec + %d, (chk >>u %d) & 0xFFFFFFFF);
	return rec;
}
func stride_v%d(buf, count) {
	var acc = %d;
	var carry = %d;
	var i = 0;
	while (i < count) {
		var w = load64(buf + i * %d);
		acc = acc + (w * %d);
		acc = acc ^ (acc << %d);
		carry = carry + (w >>u %d);
		carry = carry * %d;
		acc = acc + (carry ^ %d);
		i = i + 1;
	}
	return acc ^ (carry * %d);
}
`, i, 0x1000+i*17, seed, poly, shift, k1, k2, fold, k1+3, poly+2, shift+7,
			i, seed, poly+4, fold, mask, mask+2, k1, k2, poly+6,
			i, k1, k2, seed, off, k1+5, off+16, off+24, off+32, shift,
			i, seed, k2, stride, poly+8, fold, shift, k1+7, k2+9, poly+10)
		out = append(out, Package{Name: fmt.Sprintf("synth-0.%d/lib", i), Src: src})
	}
	return out
}

const pkgParse = `
func parse_integer(s, len) {
	var i = 0;
	var neg = 0;
	var val = 0;
	while (i < len && load8(s + i) == 0x20) {
		i = i + 1;
	}
	if (i < len && load8(s + i) == 0x2D) {
		neg = 1;
		i = i + 1;
	}
	while (i < len) {
		var c = load8(s + i);
		if (c < 0x30 || c > 0x39) {
			break;
		}
		val = val * 10 + (c - 0x30);
		i = i + 1;
	}
	if (neg == 1) {
		return 0 - val;
	}
	return val;
}
func parse_hex(s, len) {
	var i = 0;
	var val = 0;
	while (i < len) {
		var c = load8(s + i);
		var d = 0 - 1;
		if (c >= 0x30 && c <= 0x39) {
			d = c - 0x30;
		} else if (c >= 0x61 && c <= 0x66) {
			d = c - 0x61 + 10;
		} else if (c >= 0x41 && c <= 0x46) {
			d = c - 0x41 + 10;
		}
		if (d < 0) {
			break;
		}
		val = val * 16 + d;
		i = i + 1;
	}
	return val;
}
func skip_field(s, len, from) {
	var i = from;
	while (i < len && load8(s + i) != 0x3A) {
		i = i + 1;
	}
	return i + 1;
}`

const pkgStat = `
func default_format(mode, flags, out) {
	var pos = 0;
	if ((mode & 0x4000) != 0) {
		store8(out, 0x64);
	} else if ((mode & 0xA000) == 0xA000) {
		store8(out, 0x6C);
	} else {
		store8(out, 0x2D);
	}
	pos = 1;
	var bit = 8;
	while (bit >= 0) {
		var ch = 0x2D;
		if ((mode & (1 << bit)) != 0) {
			var r = bit % 3;
			if (r == 2) {
				ch = 0x72;
			} else if (r == 1) {
				ch = 0x77;
			} else {
				ch = 0x78;
			}
		}
		store8(out + pos, ch);
		pos = pos + 1;
		bit = bit - 1;
	}
	store8(out + pos, 0);
	return pos;
}
func print_stat(statbuf, out) {
	var size = load64(statbuf + 48);
	var blocks = (size + 511) / 512;
	var inode = load64(statbuf + 8);
	var links = load64(statbuf + 24);
	store64(out, inode);
	store64(out + 8, blocks);
	store64(out + 16, links);
	write_bytes(out, 24);
	return blocks;
}
func cached_umask(cachep) {
	var v = load64(cachep);
	if (v == 0 - 1) {
		v = get_umask(0);
		store64(cachep, v);
	}
	return v & 0x1FF;
}
func dev_ino_compare(a, b) {
	var da = load64(a);
	var db = load64(b);
	if (da != db) {
		if (da <u db) {
			return 0 - 1;
		}
		return 1;
	}
	var ia = load64(a + 8);
	var ib = load64(b + 8);
	if (ia <u ib) {
		return 0 - 1;
	}
	if (ia == ib) {
		return 0;
	}
	return 1;
}`

const pkgLn = `
func create_hard_link(src, dst, force, verbose) {
	if (force != 0) {
		var removed = unlink_path(dst);
		if (removed < 0) {
			log_event(0x55);
			return 0 - 1;
		}
	}
	var r = do_link(src, dst);
	if (r != 0) {
		log_event(0x4C);
		return 0 - 2;
	}
	if (verbose != 0) {
		write_bytes(dst, 1);
	}
	return 0;
}
func target_directory_operand(path, len, statp) {
	var isdir = stat_path(path, statp);
	if (isdir < 0) {
		return 0 - 1;
	}
	var mode = load64(statp + 16);
	if ((mode & 0x4000) != 0) {
		return 1;
	}
	return 0;
}`

const pkgSort = `
func compare_nodes(a, b) {
	var ka = load64(a + 16);
	var kb = load64(b + 16);
	if (ka < kb) {
		return 0 - 1;
	}
	if (ka > kb) {
		return 1;
	}
	var sa = load64(a + 24);
	var sb = load64(b + 24);
	if (sa < sb) {
		return 0 - 1;
	}
	if (sa > sb) {
		return 1;
	}
	return 0;
}
func insertion_sort64(arr, n) {
	var i = 1;
	while (i < n) {
		var key = load64(arr + i * 8);
		var j = i - 1;
		while (j >= 0 && load64(arr + j * 8) > key) {
			store64(arr + (j + 1) * 8, load64(arr + j * 8));
			j = j - 1;
		}
		store64(arr + (j + 1) * 8, key);
		i = i + 1;
	}
	return n;
}
func median_of_three(arr, lo, hi) {
	var mid = lo + (hi - lo) / 2;
	var a = load64(arr + lo * 8);
	var b = load64(arr + mid * 8);
	var c = load64(arr + hi * 8);
	if (a > b) {
		var t = a;
		a = b;
		b = t;
	}
	if (b > c) {
		b = c;
	}
	if (a > b) {
		b = a;
	}
	return b;
}`

const pkgOd = `
func format_hex_line(buf, len, off, out) {
	var pos = 0;
	var v = off;
	var k = 0;
	while (k < 6) {
		var digit = (v >>u (20 - k * 4)) & 0xF;
		if (digit < 10) {
			store8(out + pos, 0x30 + digit);
		} else {
			store8(out + pos, 0x61 + digit - 10);
		}
		pos = pos + 1;
		k = k + 1;
	}
	var i = 0;
	while (i < len && i < 16) {
		var b = load8(buf + off + i);
		store8(out + pos, 0x20);
		var hi = b >>u 4;
		var lo = b & 0xF;
		if (hi < 10) {
			store8(out + pos + 1, 0x30 + hi);
		} else {
			store8(out + pos + 1, 0x61 + hi - 10);
		}
		if (lo < 10) {
			store8(out + pos + 2, 0x30 + lo);
		} else {
			store8(out + pos + 2, 0x61 + lo - 10);
		}
		pos = pos + 3;
		i = i + 1;
	}
	store8(out + pos, 0x0A);
	return pos + 1;
}
func i_write(fd, buf, n) {
	var done = 0;
	while (done < n) {
		var chunk = n - done;
		if (chunk > 4096) {
			chunk = 4096;
		}
		var w = sys_write(fd, buf + done, chunk);
		if (w <= 0) {
			return 0 - 1;
		}
		done = done + w;
	}
	return done;
}`

const pkgCksum = `
func crc_update(crc, buf, len) {
	var i = 0;
	while (i < len) {
		crc = crc ^ (load8(buf + i) << 56);
		var k = 0;
		while (k < 8) {
			if ((crc & 0x8000000000000000) != 0) {
				crc = (crc << 1) ^ 0x42F0E1EBA9EA3693;
			} else {
				crc = crc << 1;
			}
			k = k + 1;
		}
		i = i + 1;
	}
	return crc;
}
func bsd_sum(buf, len) {
	var checksum = 0;
	var i = 0;
	while (i < len) {
		checksum = (checksum >>u 1) + ((checksum & 1) << 15);
		checksum = checksum + load8(buf + i);
		checksum = checksum & 0xFFFF;
		i = i + 1;
	}
	return checksum;
}`

const pkgExpr = `
func eval_add_chain(vals, ops, n) {
	var acc = load64(vals);
	var i = 1;
	while (i < n) {
		var op = load8(ops + i - 1);
		var v = load64(vals + i * 8);
		if (op == 0x2B) {
			acc = acc + v;
		} else if (op == 0x2D) {
			acc = acc - v;
		} else if (op == 0x2A) {
			acc = acc * v;
		} else {
			if (v == 0) {
				return 0 - 1;
			}
			acc = acc / v;
		}
		i = i + 1;
	}
	return acc;
}
func str_index(s, slen, set, setlen) {
	var i = 0;
	while (i < slen) {
		var c = load8(s + i);
		var k = 0;
		while (k < setlen) {
			if (load8(set + k) == c) {
				return i + 1;
			}
			k = k + 1;
		}
		i = i + 1;
	}
	return 0;
}`

const pkgTr = `
func build_translate_table(from, to, n, tbl) {
	var i = 0;
	while (i < 256) {
		store8(tbl + i, i);
		i = i + 1;
	}
	i = 0;
	while (i < n) {
		store8(tbl + load8(from + i), load8(to + i));
		i = i + 1;
	}
	return tbl;
}
func translate_buffer(buf, len, tbl) {
	var i = 0;
	while (i < len) {
		store8(buf + i, load8(tbl + load8(buf + i)));
		i = i + 1;
	}
	return len;
}
func squeeze_repeats(buf, len, ch) {
	var out = 0;
	var i = 0;
	var prev = 0 - 1;
	while (i < len) {
		var c = load8(buf + i);
		if (c != ch || c != prev) {
			store8(buf + out, c);
			out = out + 1;
		}
		prev = c;
		i = i + 1;
	}
	return out;
}`

const pkgDu = `
func hash_ins(table, mask, dev, ino) {
	var h = (dev * 0x9E3779B97F4A7C15) ^ ino;
	h = h >>u 32;
	var idx = h & mask;
	var probes = 0;
	while (probes <= mask) {
		var slot = table + idx * 16;
		var d = load64(slot);
		if (d == 0) {
			store64(slot, dev);
			store64(slot + 8, ino);
			return 1;
		}
		if (d == dev && load64(slot + 8) == ino) {
			return 0;
		}
		idx = (idx + 1) & mask;
		probes = probes + 1;
	}
	return 0 - 1;
}
func human_readable(n, out) {
	var unit = 0;
	while (n >= 10240 && unit < 6) {
		n = n / 1024;
		unit = unit + 1;
	}
	store64(out, n);
	store8(out + 8, unit);
	return n;
}`

const pkgWgetFtp = `
func ftp_syst(csock, buf, buflen) {
	var req = buf;
	store8(req, 0x53);
	store8(req + 1, 0x59);
	store8(req + 2, 0x53);
	store8(req + 3, 0x54);
	store8(req + 4, 0x0D);
	store8(req + 5, 0x0A);
	var sent = sys_write(csock, req, 6);
	if (sent != 6) {
		return 0 - 1;
	}
	var got = sys_read(csock, buf, buflen);
	if (got < 3) {
		return 0 - 2;
	}
	var code = (load8(buf) - 0x30) * 100 + (load8(buf + 1) - 0x30) * 10 + (load8(buf + 2) - 0x30);
	if (code != 215) {
		return 0 - 3;
	}
	var i = 3;
	while (i < got && load8(buf + i) == 0x20) {
		i = i + 1;
	}
	if (i + 4 <= got && load8(buf + i) == 0x55 && load8(buf + i + 1) == 0x4E) {
		return 1;
	}
	if (i + 3 <= got && load8(buf + i) == 0x56 && load8(buf + i + 1) == 0x4D) {
		return 2;
	}
	return 0;
}
func ftp_expected_bytes(resp, len) {
	var i = 0;
	var bytes = 0;
	while (i + 1 < len) {
		if (load8(resp + i) == 0x28) {
			var k = i + 1;
			while (k < len) {
				var c = load8(resp + k);
				if (c < 0x30 || c > 0x39) {
					break;
				}
				bytes = bytes * 10 + (c - 0x30);
				k = k + 1;
			}
			return bytes;
		}
		i = i + 1;
	}
	return 0;
}`

const pkgFfmpegRv34 = `
func ff_rv34_decode_init_thread_copy(dst, src) {
	var i = 0;
	while (i < 6) {
		store64(dst + i * 8, load64(src + i * 8));
		i = i + 1;
	}
	var w = load64(src);
	var h = load64(src + 8);
	var mb = ((w + 15) >> 4) * ((h + 15) >> 4);
	var tbl = av_malloc(mb * 8);
	if (tbl == 0) {
		return 0 - 12;
	}
	store64(dst + 24, tbl);
	var k = 0;
	while (k < mb) {
		store64(tbl + k * 8, load64(load64(src + 24) + k * 8));
		k = k + 1;
	}
	store64(dst + 48, 1);
	return 0;
}
func rv34_gen_vlc(table, n, out) {
	var i = 0;
	var code = 0;
	while (i < n) {
		var bits = load8(table + i);
		code = (code + 1) << (bits & 0x1F);
		store32(out + i * 4, code | (bits << 24));
		i = i + 1;
	}
	return code;
}`

const pkgBashSubst = `
func sub_append_string(base, baselen, add, addlen, cap) {
	if (baselen + addlen + 1 >u cap) {
		var newcap = cap * 2;
		while (newcap <u baselen + addlen + 1) {
			newcap = newcap * 2;
		}
		base = xrealloc(base, newcap);
	}
	var i = 0;
	while (i < addlen) {
		store8(base + baselen + i, load8(add + i));
		i = i + 1;
	}
	store8(base + baselen + addlen, 0);
	return base;
}
func skip_single_quoted(s, len, from) {
	var i = from;
	while (i < len && load8(s + i) != 0x27) {
		i = i + 1;
	}
	if (i < len) {
		return i + 1;
	}
	return i;
}
func de_backslash(s, len) {
	var out = 0;
	var i = 0;
	while (i < len) {
		var c = load8(s + i);
		if (c == 0x5C && i + 1 < len) {
			i = i + 1;
			c = load8(s + i);
		}
		store8(s + out, c);
		out = out + 1;
		i = i + 1;
	}
	store8(s + out, 0);
	return out;
}`

const pkgOpensslBuf = `
func buf_mem_grow(lenp, datap, newlen) {
	var len = load64(lenp);
	if (newlen <= len) {
		store64(lenp, newlen);
		return newlen;
	}
	var grown = xrealloc(load64(datap), newlen + 3 & ~3);
	if (grown == 0) {
		return 0;
	}
	store64(datap, grown);
	var i = len;
	while (i < newlen) {
		store8(grown + i, 0);
		i = i + 1;
	}
	store64(lenp, newlen);
	return newlen;
}
func ssl3_read_n(bufp, have, want, max) {
	if (want >u max) {
		return 0 - 1;
	}
	var need = want - have;
	var got = 0;
	while (got < need) {
		var r = sys_read(0, load64(bufp) + have + got, need - got);
		if (r <= 0) {
			return 0 - 2;
		}
		got = got + r;
	}
	return have + got;
}`

const pkgQemuChardev = `
func qemu_chr_write(chr, buf, len) {
	var offset = 0;
	while (offset < len) {
		var avail = load64(chr + 16) - load64(chr + 8);
		if (avail <= 0) {
			chr_flush(chr);
			avail = load64(chr + 16);
			store64(chr + 8, 0);
		}
		var chunk = len - offset;
		if (chunk > avail) {
			chunk = avail;
		}
		var wpos = load64(chr) + load64(chr + 8);
		var i = 0;
		while (i < chunk) {
			store8(wpos + i, load8(buf + offset + i));
			i = i + 1;
		}
		store64(chr + 8, load64(chr + 8) + chunk);
		offset = offset + chunk;
	}
	return len;
}
func ringbuf_put(rb, cap, val) {
	var head = load64(rb + 8);
	store8(load64(rb) + (head & (cap - 1)), val);
	store64(rb + 8, head + 1);
	var tail = load64(rb + 16);
	if (head + 1 - tail >u cap) {
		store64(rb + 16, head + 1 - cap);
	}
	return head + 1;
}`

const pkgNtpRefclock = `
func refclock_process_offset(peer, sample, leap) {
	var n = load64(peer + 8);
	var idx = n % 64;
	store64(load64(peer) + idx * 8, sample);
	store64(peer + 8, n + 1);
	if (leap != 0) {
		store64(peer + 16, leap);
	}
	return n + 1;
}
func clocktime(yday, hour, minute, second, tzoff) {
	var secs = (yday - 1) * 86400;
	secs = secs + hour * 3600;
	secs = secs + minute * 60;
	secs = secs + second;
	return secs - tzoff;
}
func median_filter(samples, n) {
	var best = load64(samples);
	var besterr = best;
	if (besterr < 0) {
		besterr = 0 - besterr;
	}
	var i = 1;
	while (i < n) {
		var v = load64(samples + i * 8);
		var e = v;
		if (e < 0) {
			e = 0 - e;
		}
		if (e < besterr) {
			best = v;
			besterr = e;
		}
		i = i + 1;
	}
	return best;
}`
