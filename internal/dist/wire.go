package dist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"time"

	"gfd/internal/core"
	"gfd/internal/fault"
	"gfd/internal/graph"
	"gfd/internal/validate"
)

// The wire protocol: every frame is a u32 little-endian payload length, a
// u8 frame type, then the payload. Strings are u32 length + bytes; node
// IDs travel as u64 (NodeIDs are global — every shard shares the full
// node table, so no translation happens at either end). The protocol is
// deliberately version-checked in the HELLO and bounded by maxFrame: a
// torn or garbage frame must become a typed error (and a worker-death
// event), never a giant allocation or a misread. Decoders accept exactly
// the bytes their encoder writes: a short payload, a count the payload
// cannot hold, unknown flag bits or trailing bytes are all errMalformed.

const (
	// protoVersion 2: ASSIGN carries a batch of units plus their union
	// halo (version 1 carried one unit).
	protoVersion = 2
	// maxFrame bounds one frame's payload. Halo sections dominate frame
	// size; a frame above this is protocol corruption, not data.
	maxFrame = 64 << 20
	// frameOverhead is the header cost charged per frame against the
	// modeled cost model (length + type).
	frameOverhead = 5
	// readStep is the largest payload buffer the frame reader allocates
	// before the bytes arrive; longer frames grow it as they are read.
	readStep = 1 << 20
)

// errMalformed marks a payload or frame header that no encoder writes.
// Every decode failure wraps it; torn frames additionally wrap
// io.ErrUnexpectedEOF.
var errMalformed = errors.New("dist: malformed frame")

// Frame types.
const (
	fHello     byte = iota + 1 // coordinator -> worker: identity, rules, shard path
	fReady                     // worker -> coordinator: shard opened, groups rebuilt
	fAssign                    // coordinator -> worker: a batch of units + their halo
	fVio                       // worker -> coordinator: violation batch
	fDone                      // worker -> coordinator: unit finished
	fHeartbeat                 // worker -> coordinator: liveness
	fShutdown                  // coordinator -> worker: drain and report census
	fCensus                    // worker -> coordinator: final tallies
)

// ---- encoding -------------------------------------------------------------

type wbuf struct{ b []byte }

func (w *wbuf) u8(v byte)    { w.b = append(w.b, v) }
func (w *wbuf) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wbuf) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *wbuf) i64(v int64)  { w.u64(uint64(v)) }
func (w *wbuf) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}

type rbuf struct {
	b   []byte
	off int
	err error
}

func (r *rbuf) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: bad %s at offset %d", errMalformed, what, r.off)
	}
}

// end is the decoders' last call: it rejects trailing bytes and returns
// the first error of the decode.
func (r *rbuf) end() error {
	if r.err == nil && r.off != len(r.b) {
		r.fail("trailer")
	}
	return r.err
}

func (r *rbuf) u8() byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail("u8")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *rbuf) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *rbuf) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *rbuf) i64() int64 { return int64(r.u64()) }

// node reads a node ID, rejecting values NodeID cannot hold.
func (r *rbuf) node() graph.NodeID {
	v := r.u64()
	if v > math.MaxInt32 {
		r.fail("node id")
		return 0
	}
	return graph.NodeID(v)
}

func (r *rbuf) str() string {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail("string")
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// count reads a u32 element count and sanity-bounds it by the remaining
// payload (each element costs at least `min` bytes), so a corrupt count
// cannot drive a huge allocation.
func (r *rbuf) count(min int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n < 0 || n*min > len(r.b)-r.off {
		r.fail("count")
		return 0
	}
	return n
}

// ---- frame I/O ------------------------------------------------------------

// frameWriter serializes frames onto one pipe. The mutex makes it safe
// for the worker's heartbeat goroutine and unit loop to interleave; the
// injector hook is the worker-side PipeFrame fault site — a stall sleeps
// while *holding* the writer (starving heartbeats, which is the point),
// and a truncation writes a prefix and hands control to onTruncate (the
// worker exits there, mid-frame, like a real crash during a write).
type frameWriter struct {
	mu         sync.Mutex
	w          *bufio.Writer
	inj        *fault.Injector
	worker     int
	onTruncate func()
}

func (fw *frameWriter) write(typ byte, payload []byte) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	var hdr [frameOverhead]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	if fw.inj != nil {
		stall, trunc := fw.inj.CrossPipe(fw.worker)
		if stall > 0 {
			time.Sleep(stall)
		}
		if trunc && fw.onTruncate != nil {
			fw.w.Write(hdr[:])
			fw.w.Write(payload[:len(payload)/2])
			fw.w.Flush()
			fw.onTruncate() // does not return
		}
	}
	if _, err := fw.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := fw.w.Write(payload); err != nil {
		return err
	}
	return fw.w.Flush()
}

// frameReader deserializes frames off one pipe.
type frameReader struct {
	r *bufio.Reader
}

// read returns the next frame. io.EOF (clean close between frames) and
// io.ErrUnexpectedEOF (torn frame) both surface as errors; the caller
// treats any error as end-of-peer. The payload grows as its bytes arrive,
// so a corrupt header claiming a huge frame costs only what the peer
// actually sent.
func (fr *frameReader) read() (byte, []byte, error) {
	var hdr [frameOverhead]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, nil, fmt.Errorf("%w: torn header: %w", errMalformed, err)
		}
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:4]))
	if n > maxFrame {
		return 0, nil, fmt.Errorf("%w: %d-byte frame exceeds limit %d", errMalformed, n, maxFrame)
	}
	payload := make([]byte, 0, min(n, readStep))
	for len(payload) < n {
		if len(payload) == cap(payload) {
			payload = slices.Grow(payload, min(n-len(payload), len(payload)))
		}
		k, err := io.ReadFull(fr.r, payload[len(payload):min(n, cap(payload))])
		payload = payload[:len(payload)+k]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, fmt.Errorf("%w: torn payload: %w", errMalformed, err)
		}
	}
	return hdr[4], payload, nil
}

// ---- messages -------------------------------------------------------------

type helloMsg struct {
	proto     uint32
	worker    int
	workers   int
	numNodes  int
	heartbeat time.Duration
	combine   bool
	arbPivot  bool
	shardPath string
	rules     string // core.WriteRules serialization of the effective set
	groups    int    // coordinator's group count, sanity-checked worker-side
}

func encodeHello(h helloMsg) []byte {
	var w wbuf
	w.u32(h.proto)
	w.u32(uint32(h.worker))
	w.u32(uint32(h.workers))
	w.u64(uint64(h.numNodes))
	w.i64(int64(h.heartbeat))
	var flags byte
	if h.combine {
		flags |= 1
	}
	if h.arbPivot {
		flags |= 2
	}
	w.u8(flags)
	w.str(h.shardPath)
	w.str(h.rules)
	w.u32(uint32(h.groups))
	return w.b
}

func decodeHello(b []byte) (helloMsg, error) {
	r := rbuf{b: b}
	h := helloMsg{proto: r.u32()}
	h.worker = int(r.u32())
	h.workers = int(r.u32())
	h.numNodes = int(r.u64())
	h.heartbeat = time.Duration(r.i64())
	flags := r.u8()
	if flags&^3 != 0 {
		r.fail("flags")
	}
	h.combine = flags&1 != 0
	h.arbPivot = flags&2 != 0
	h.shardPath = r.str()
	h.rules = r.str()
	h.groups = int(r.u32())
	return h, r.end()
}

type readyMsg struct {
	numNodes int
	groups   int
}

func encodeReady(m readyMsg) []byte {
	var w wbuf
	w.u64(uint64(m.numNodes))
	w.u32(uint32(m.groups))
	return w.b
}

func decodeReady(b []byte) (readyMsg, error) {
	r := rbuf{b: b}
	m := readyMsg{numNodes: int(r.u64()), groups: int(r.u32())}
	return m, r.end()
}

// haloNode is one non-owned block node shipped to a worker: its attribute
// tuple and full adjacency, as strings (symbol codes are identical across
// shards by construction, but strings keep the protocol independent of
// that invariant — the overlay re-interns to the same codes either way).
type haloNode struct {
	id    graph.NodeID
	attrs [][2]string
	out   []haloEdge // id -> To
	in    []haloEdge // To -> id
}

type haloEdge struct {
	to    graph.NodeID
	label string
}

// assignMsg is one refill of a worker's window: units in the order the
// worker must run them, each with its skip count, plus the union of the
// halo nodes they need that this worker incarnation has not received yet.
type assignMsg struct {
	units []assignedUnit
	halo  []haloNode
}

type assignedUnit struct {
	unit validate.DistUnit
	skip int64 // violations earlier attempts delivered; the rerun suppresses them
}

// Minimum encoded sizes, which bound the decoders' counts.
const (
	minUnitBytes = 4*4 + 8 + 8 + 4 // id, group, stripe mod/rem; block size; skip; candidate count
	minHaloBytes = 8 + 3*4         // id; attr, out and in counts
	minPairBytes = 2 * 4           // two empty strings
	minEdgeBytes = 8 + 4           // target; empty label
)

// encodeAssign appends m's encoding to dst, so a sender can build every
// batch in one reused buffer.
func encodeAssign(dst []byte, m assignMsg) []byte {
	w := wbuf{b: dst}
	w.u32(uint32(len(m.units)))
	for _, au := range m.units {
		u := au.unit
		w.u32(uint32(u.ID))
		w.u32(uint32(u.Group))
		w.u32(uint32(u.StripeMod))
		w.u32(uint32(u.StripeRem))
		w.u64(uint64(u.BlockSize))
		w.i64(au.skip)
		w.u32(uint32(len(u.Candidates)))
		for _, c := range u.Candidates {
			w.u64(uint64(c))
		}
	}
	w.u32(uint32(len(m.halo)))
	for _, h := range m.halo {
		w.u64(uint64(h.id))
		w.u32(uint32(len(h.attrs)))
		for _, kv := range h.attrs {
			w.str(kv[0])
			w.str(kv[1])
		}
		w.u32(uint32(len(h.out)))
		for _, e := range h.out {
			w.u64(uint64(e.to))
			w.str(e.label)
		}
		w.u32(uint32(len(h.in)))
		for _, e := range h.in {
			w.u64(uint64(e.to))
			w.str(e.label)
		}
	}
	return w.b
}

func decodeAssign(b []byte) (assignMsg, error) {
	r := rbuf{b: b}
	var m assignMsg
	nu := r.count(minUnitBytes)
	m.units = make([]assignedUnit, 0, nu)
	for i := 0; i < nu && r.err == nil; i++ {
		var au assignedUnit
		au.unit.ID = int(r.u32())
		au.unit.Group = int(r.u32())
		au.unit.StripeMod = int(r.u32())
		au.unit.StripeRem = int(r.u32())
		au.unit.BlockSize = int(r.u64())
		au.skip = r.i64()
		au.unit.Candidates = make([]graph.NodeID, r.count(8))
		for j := range au.unit.Candidates {
			au.unit.Candidates[j] = r.node()
		}
		m.units = append(m.units, au)
	}
	nh := r.count(minHaloBytes)
	m.halo = make([]haloNode, 0, nh)
	for i := 0; i < nh && r.err == nil; i++ {
		var h haloNode
		h.id = r.node()
		h.attrs = make([][2]string, r.count(minPairBytes))
		for j := range h.attrs {
			h.attrs[j][0] = r.str()
			h.attrs[j][1] = r.str()
		}
		h.out = make([]haloEdge, r.count(minEdgeBytes))
		for j := range h.out {
			h.out[j] = haloEdge{to: r.node(), label: r.str()}
		}
		h.in = make([]haloEdge, r.count(minEdgeBytes))
		for j := range h.in {
			h.in[j] = haloEdge{to: r.node(), label: r.str()}
		}
		m.halo = append(m.halo, h)
	}
	return m, r.end()
}

type vioMsg struct {
	unit int
	vios []validate.Violation
}

func encodeVio(m vioMsg) []byte {
	var w wbuf
	w.u32(uint32(m.unit))
	w.u32(uint32(len(m.vios)))
	for _, v := range m.vios {
		w.str(v.Rule)
		w.u32(uint32(len(v.Match)))
		for _, id := range v.Match {
			w.u64(uint64(id))
		}
	}
	return w.b
}

func decodeVio(b []byte) (vioMsg, error) {
	r := rbuf{b: b}
	var m vioMsg
	m.unit = int(r.u32())
	n := r.count(8)
	m.vios = make([]validate.Violation, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		var v validate.Violation
		v.Rule = r.str()
		nm := r.count(8)
		v.Match = make(core.Match, nm)
		for j := range v.Match {
			v.Match[j] = r.node()
		}
		m.vios = append(m.vios, v)
	}
	return m, r.end()
}

type doneMsg struct {
	unit      int
	found     int64 // violations enumerated, including skipped ones
	delivered int64 // violations emitted this attempt (after skip)
	wall      time.Duration
}

func encodeDone(m doneMsg) []byte {
	var w wbuf
	w.u32(uint32(m.unit))
	w.i64(m.found)
	w.i64(m.delivered)
	w.i64(int64(m.wall))
	return w.b
}

func decodeDone(b []byte) (doneMsg, error) {
	r := rbuf{b: b}
	m := doneMsg{unit: int(r.u32()), found: r.i64(), delivered: r.i64(), wall: time.Duration(r.i64())}
	return m, r.end()
}

type censusMsg struct {
	unitsRun  int64
	delivered int64
}

func encodeCensus(m censusMsg) []byte {
	var w wbuf
	w.i64(m.unitsRun)
	w.i64(m.delivered)
	return w.b
}

func decodeCensus(b []byte) (censusMsg, error) {
	r := rbuf{b: b}
	m := censusMsg{unitsRun: r.i64(), delivered: r.i64()}
	return m, r.end()
}
