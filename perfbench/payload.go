package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"

	"plwg/internal/ids"
)

// Every benchmark message carries a header the receivers check:
//
//	[0:8)   due time, ns since the run's epoch
//	[8:12)  sender pid
//	[12:14) LWG index into the workload's group list
//	[14:16) phase (see the phase constants)
//	[16:24) sequence number within the (LWG, sender) stream, from 1
//	[24:)   pseudo-random body derived from the seed and the header
//
// The body makes every payload distinct, so a payload buffer that is
// overwritten while the service still holds it shows up as a checksum
// mismatch at the receivers.
const headerSize = 24

// Message phases. Latency and throughput count only the measured
// phases; warm-up traffic is still checked for correctness.
const (
	phaseWarm     = 0
	phaseOpen     = 1
	phaseSaturate = 2
	phaseTrickle  = 3
)

type header struct {
	due    int64
	sender ids.ProcessID
	lwg    int
	phase  int
	seq    uint64
}

// key names a message in check.Agreement logs.
func (h header) key() string { return fmt.Sprintf("%d/%d/%d", h.sender, h.lwg, h.seq) }

// makePayload builds a fresh payload buffer for one Send. The service
// keeps the slice until its batch flushes, so a buffer is never reused.
func makePayload(size int, seed int64, h header) []byte {
	b := make([]byte, size)
	binary.LittleEndian.PutUint64(b[0:], uint64(h.due))
	binary.LittleEndian.PutUint32(b[8:], uint32(h.sender))
	binary.LittleEndian.PutUint16(b[12:], uint16(h.lwg))
	binary.LittleEndian.PutUint16(b[14:], uint16(h.phase))
	binary.LittleEndian.PutUint64(b[16:], h.seq)
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(h.sender)<<48 ^ uint64(h.lwg)<<32 ^ h.seq
	var tail [8]byte
	for i := headerSize; i < size; i += 8 {
		// splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		binary.LittleEndian.PutUint64(tail[:], z)
		copy(b[i:], tail[:])
	}
	return b
}

func parseHeader(b []byte) (header, bool) {
	if len(b) < headerSize {
		return header{}, false
	}
	return header{
		due:    int64(binary.LittleEndian.Uint64(b[0:])),
		sender: ids.ProcessID(binary.LittleEndian.Uint32(b[8:])),
		lwg:    int(binary.LittleEndian.Uint16(b[12:])),
		phase:  int(binary.LittleEndian.Uint16(b[14:])),
		seq:    binary.LittleEndian.Uint64(b[16:]),
	}, true
}

func checksum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

type streamKey struct {
	lwg    int
	sender ids.ProcessID
}

// sentTable records, per (LWG, sender) stream, the checksum of every
// payload in send order. Senders append before calling Send; receivers
// read it from their driver loops, hence the lock.
type sentTable struct {
	mu   sync.Mutex
	sums map[streamKey][]uint32
}

func newSentTable() *sentTable { return &sentTable{sums: make(map[streamKey][]uint32)} }

// next returns the sequence number the stream's next message gets.
func (t *sentTable) next(k streamKey) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return uint64(len(t.sums[k])) + 1
}

// record appends the checksum of the stream's next payload.
func (t *sentTable) record(k streamKey, sum uint32) {
	t.mu.Lock()
	t.sums[k] = append(t.sums[k], sum)
	t.mu.Unlock()
}

// sum returns the checksum of the stream's seq-th payload.
func (t *sentTable) sum(k streamKey, seq uint64) (uint32, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.sums[k]
	if seq == 0 || seq > uint64(len(s)) {
		return 0, false
	}
	return s[seq-1], true
}

func (t *sentTable) total() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.sums {
		n += len(s)
	}
	return int64(n)
}

// deliveryCheck verifies one receiver's deliveries as they arrive: no
// duplicates, FIFO per (LWG, sender), the payload checksum of the
// stream position, and a sender that belongs to the delivering view.
// It is confined to the receiver's driver loop.
type deliveryCheck struct {
	pid        ids.ProcessID
	lwgs       []ids.LWGID
	sent       *sentTable
	next       map[streamKey]uint64 // sequence number expected next
	violations []string
	nviolation int
}

func newDeliveryCheck(pid ids.ProcessID, lwgs []ids.LWGID, sent *sentTable) *deliveryCheck {
	return &deliveryCheck{pid: pid, lwgs: lwgs, sent: sent, next: make(map[streamKey]uint64)}
}

const maxViolations = 8

func (c *deliveryCheck) fail(format string, args ...any) {
	c.nviolation++
	if len(c.violations) < maxViolations {
		c.violations = append(c.violations, fmt.Sprintf("p%d: ", c.pid)+fmt.Sprintf(format, args...))
	}
}

// deliver checks one Data upcall. view is the receiver's current view
// of the group; payload is the delivered data.
func (c *deliveryCheck) deliver(lwg ids.LWGID, src ids.ProcessID, payload []byte, view ids.View) {
	h, ok := parseHeader(payload)
	if !ok {
		c.fail("%s: short payload (%d bytes) from p%d", lwg, len(payload), src)
		return
	}
	if h.sender != src || h.lwg >= len(c.lwgs) || c.lwgs[h.lwg] != lwg {
		c.fail("%s: header names sender p%d group %d, upcall says p%d", lwg, h.sender, h.lwg, src)
		return
	}
	if !view.Contains(src) {
		c.fail("%s: delivery from p%d outside the delivering view %v", lwg, src, view.Members)
	}
	k := streamKey{h.lwg, src}
	want := c.next[k]
	if want == 0 {
		want = 1
	}
	switch {
	case h.seq < want:
		c.fail("%s: duplicate of p%d#%d (expected #%d)", lwg, src, h.seq, want)
	case h.seq > want:
		c.fail("%s: FIFO break from p%d: got #%d, expected #%d", lwg, src, h.seq, want)
	}
	// The checksum is that of the payload sent at this stream position,
	// so a payload rewritten after Send fails it even when its header is
	// self-consistent.
	if s, ok := c.sent.sum(k, want); !ok || s != checksum(payload) {
		c.fail("%s: checksum mismatch at p%d#%d", lwg, src, want)
	}
	c.next[k] = want + 1
}

// delivered returns how many messages of the stream arrived in order.
func (c *deliveryCheck) delivered(k streamKey) uint64 {
	if n := c.next[k]; n > 0 {
		return n - 1
	}
	return 0
}
