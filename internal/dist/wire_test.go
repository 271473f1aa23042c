package dist

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/validate"
)

type wireSeed struct {
	typ     byte
	payload []byte
}

// wireSeeds returns one valid payload per frame type.
func wireSeeds() []wireSeed {
	return []wireSeed{
		{fHello, encodeHello(helloMsg{proto: protoVersion, worker: 1, workers: 2, numNodes: 9,
			heartbeat: time.Second, combine: true, shardPath: "s.0.gfds", rules: "r", groups: 1})},
		{fReady, encodeReady(readyMsg{numNodes: 9, groups: 1})},
		{fAssign, encodeAssign(nil, assignMsg{
			units: []assignedUnit{
				{unit: validate.DistUnit{ID: 3, Group: 1, Candidates: []graph.NodeID{4, 5}, BlockSize: 6}, skip: 2},
				{unit: validate.DistUnit{ID: 7, StripeMod: 2, StripeRem: 1}},
			},
			halo: []haloNode{{id: 4, attrs: [][2]string{{"a", "b"}},
				out: []haloEdge{{to: 5, label: "e"}}, in: []haloEdge{{to: 1, label: ""}}}},
		})},
		{fVio, encodeVio(vioMsg{unit: 3, vios: []validate.Violation{{Rule: "r", Match: core.Match{4, 5}}}})},
		{fDone, encodeDone(doneMsg{unit: 3, found: 4, delivered: 2, wall: time.Millisecond})},
		{fCensus, encodeCensus(censusMsg{unitsRun: 2, delivered: 3})},
	}
}

// appendFrame appends one encoded frame (header + payload) to b.
func appendFrame(b []byte, typ byte, payload []byte) []byte {
	var buf bytes.Buffer
	fw := &frameWriter{w: bufio.NewWriter(&buf)}
	if err := fw.write(typ, payload); err != nil {
		panic(err)
	}
	return append(b, buf.Bytes()...)
}

// reencoders decode a payload as each message type and, on success,
// encode the result again.
var reencoders = map[string]func([]byte) ([]byte, error){
	"hello": func(b []byte) ([]byte, error) {
		m, err := decodeHello(b)
		return encodeHello(m), err
	},
	"ready": func(b []byte) ([]byte, error) {
		m, err := decodeReady(b)
		return encodeReady(m), err
	},
	"assign": func(b []byte) ([]byte, error) {
		m, err := decodeAssign(b)
		return encodeAssign(nil, m), err
	},
	"vio": func(b []byte) ([]byte, error) {
		m, err := decodeVio(b)
		return encodeVio(m), err
	},
	"done": func(b []byte) ([]byte, error) {
		m, err := decodeDone(b)
		return encodeDone(m), err
	},
	"census": func(b []byte) ([]byte, error) {
		m, err := decodeCensus(b)
		return encodeCensus(m), err
	},
}

// FuzzWire feeds arbitrary bytes to the frame reader and every frame
// payload (and the raw input) to every decoder. Each must come back as
// io.EOF or an errMalformed error, never a panic; a payload a decoder
// accepts must re-encode to exactly the same bytes; and allocation stays
// proportional to the input, because every count is bounded by the bytes
// left and a frame's buffer grows only as its bytes arrive.
func FuzzWire(f *testing.F) {
	var stream []byte
	for _, s := range wireSeeds() {
		f.Add(s.payload)
		f.Add(appendFrame(nil, s.typ, s.payload))
		stream = appendFrame(stream, s.typ, s.payload)
	}
	f.Add(stream)
	f.Add(stream[:len(stream)-3])                  // torn payload
	f.Add([]byte{0xff, 0xff, 0xff, 0x03, fAssign}) // claims a frame just under maxFrame
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, fVio})    // claims a frame over maxFrame

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		check := func(payload []byte) {
			for name, re := range reencoders {
				out, err := re(payload)
				if err != nil {
					if !errors.Is(err, errMalformed) {
						t.Fatalf("%s: untyped error %v", name, err)
					}
					continue
				}
				if !bytes.Equal(out, payload) {
					t.Fatalf("%s: accepted %x but re-encodes to %x", name, payload, out)
				}
			}
		}
		fr := &frameReader{r: bufio.NewReader(bytes.NewReader(data))}
		for {
			_, payload, err := fr.read()
			if err != nil {
				if err != io.EOF && !errors.Is(err, errMalformed) {
					t.Fatalf("frame reader: untyped error %v", err)
				}
				break
			}
			check(payload)
		}
		check(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+4*readStep); got > limit {
			t.Fatalf("%d input bytes allocated %d bytes, limit %d", len(data), got, limit)
		}
	})
}
