package recordlog

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"unicode/utf8"
)

// scanAll scans data and returns every record kept.
func scanAll(t *testing.T, data []byte, version int) (recs []Record, dropped int, torn bool, err error) {
	t.Helper()
	dropped, torn, err = Scan(bytes.NewReader(data), version, func(rec Record) bool {
		recs = append(recs, rec)
		return true
	})
	return recs, dropped, torn, err
}

func mustLine(t *testing.T, version int, key, data string) string {
	t.Helper()
	line, err := Line(version, key, json.RawMessage(data))
	if err != nil {
		t.Fatal(err)
	}
	return string(line)
}

func TestScanDropsTornLinesOneAtATime(t *testing.T) {
	a := mustLine(t, 1, "a", `{"n":1}`)
	b := mustLine(t, 1, "b", `[2]`)
	flipped := strings.Replace(b, "[2]", "[3]", 1) // parses, fails its CRC
	log := a + `{"v":1,"op":"x","da` + "\n" + "junk\n\n" + flipped + b + `{"v":1,"o`
	recs, dropped, torn, err := scanAll(t, []byte(log), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Key != "a" || string(recs[1].Data) != `[2]` {
		t.Fatalf("kept %+v, want records a and b", recs)
	}
	if dropped != 4 || !torn {
		t.Fatalf("dropped %d, torn %v; want 4 dropped and a torn tail", dropped, torn)
	}

	// keep can reject a record, which counts as dropped.
	dropped, torn, err = Scan(strings.NewReader(a+b), 1, func(rec Record) bool { return rec.Key == "a" })
	if err != nil || dropped != 1 || torn {
		t.Fatalf("rejecting keep: dropped %d, torn %v, err %v", dropped, torn, err)
	}
}

func TestScanVersionMismatchIsAnError(t *testing.T) {
	log := mustLine(t, 1, "a", `1`) + mustLine(t, 2, "b", `2`)
	if _, _, _, err := scanAll(t, []byte(log), 1); err == nil || !strings.Contains(err.Error(), "version 2, want 1") {
		t.Fatalf("err %v, want a version mismatch", err)
	}
}

// FuzzRecordLog: Scan never panics on any input and returns only
// records whose CRC checks; and a record appended after any prefix —
// with the torn-tail verdict Scan gave on that prefix — reads back
// intact as the log's last record.
func FuzzRecordLog(f *testing.F) {
	rec := "{\"v\":1,\"op\":\"job\",\"crc\":1,\"data\":{}}\n"
	f.Add([]byte(""), "job", "x")
	f.Add([]byte(rec), "cell", "y")
	f.Add([]byte(rec[:17]), "a", "")
	f.Add([]byte("junk\r\n{\"v\":1,\"op\":\"a\",\"crc\":3904355907,\"data\":1}"), "a", "\x00<&>")
	f.Add([]byte("null\n"), "k", "v")
	f.Add([]byte("{\"v\":2}"), "k", "v")
	f.Fuzz(func(t *testing.T, prefix []byte, key, payload string) {
		checkCRC := func(rec Record) bool {
			if rec.CRC != checksum(rec.Key, rec.Data) {
				t.Fatalf("record %q returned with a bad CRC", rec.Key)
			}
			return true
		}
		_, torn, err := Scan(bytes.NewReader(prefix), 1, checkCRC)
		if err != nil || !utf8.ValidString(key) {
			return // the caller's decision; keys are names, always UTF-8
		}
		data, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		line, err := Line(1, key, data)
		if err != nil {
			t.Fatal(err)
		}
		log := bytes.NewBuffer(bytes.Clone(prefix))
		if err := NewWriter(log, torn).Write(line); err != nil {
			t.Fatal(err)
		}
		var last Record
		_, torn, err = Scan(bytes.NewReader(log.Bytes()), 1, func(rec Record) bool {
			last = rec
			return checkCRC(rec)
		})
		if err != nil || torn {
			t.Fatalf("log with an appended record: torn %v, err %v", torn, err)
		}
		if last.Key != key || !bytes.Equal(last.Data, data) {
			t.Fatalf("appended record read back as %q %s, want %q %s", last.Key, last.Data, key, data)
		}
	})
}
