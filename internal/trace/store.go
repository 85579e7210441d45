// Record storage: the tracer's attribute arena and intern tables.
//
// A large run records hundreds of thousands of spans, most carrying two
// to four attributes. Storing each record's attributes as its own []Attr
// cost an allocation per record, 48 bytes per attribute, and a copy at
// every End/Annotate that grew the slice. Instead every attribute is a
// few varint bytes in one tracer-owned byte arena: keys and string
// values are interned per tracer, numbers are stored by value, and a
// record's attributes form a chain of segments linked by arena address,
// so End and Annotate link a new segment after the chain's last one
// without copying the old ones. The arena grows in fixed pages and never
// re-copies; the pages are plain bytes, so the garbage collector never
// scans them.
package trace

import "encoding/binary"

// The arena is a list of byte pages. An arena address is a uint32,
// page<<arenaPageBits | offset, and address 0 is never a segment, so it
// is the nil link and a record with no attributes has head 0.
//
// A segment is written by one push and never straddles a page:
//
//	link  4 bytes, little-endian: the next segment's address, 0 at the end
//	count 1 byte: the segment's attribute count
//	count × (uvarint(key<<2 | kind), value)
//
// A value is a string's intern index as a uvarint, an int as a zigzag
// varint, or a float's 8 raw bytes, little-endian.
const (
	arenaPageBits = 14
	arenaPageLen  = 1 << arenaPageBits
	arenaPageMask = arenaPageLen - 1
	arenaMaxPages = 1 << (32 - arenaPageBits)

	segHeader   = 5   // link and count
	segMaxAttrs = 255 // the most a count byte holds
	// maxAttrLen bounds an attribute: a five-byte key and a ten-byte
	// int. push starts an attribute only where maxAttrLen bytes remain
	// in the page, so no attribute overruns its page.
	maxAttrLen = 5 + binary.MaxVarintLen64
)

type arenaPage = [arenaPageLen]byte

// label is an interned (category, name) pair.
type label struct{ cat, name string }

// store is one tracer's attribute arena and intern tables.
type store struct {
	pages    []*arenaPage
	off      int // next free byte in the last page
	strs     []string
	strIdx   map[string]uint32
	labels   []label
	labelIdx map[label]uint32
}

func newStore() store {
	return store{off: arenaPageLen, strIdx: make(map[string]uint32), labelIdx: make(map[label]uint32)}
}

// intern returns the index of s in the string table, adding it if new.
func (st *store) intern(s string) uint32 {
	if i, ok := st.strIdx[s]; ok {
		return i
	}
	i := uint32(len(st.strs))
	st.strs = append(st.strs, s)
	st.strIdx[s] = i
	return i
}

// label returns the index of the (cat, name) pair, adding it if new.
func (st *store) label(cat, name string) uint32 {
	l := label{cat, name}
	if i, ok := st.labelIdx[l]; ok {
		return i
	}
	i := uint32(len(st.labels))
	st.labels = append(st.labels, l)
	st.labelIdx[l] = i
	return i
}

// open opens an empty segment with room for at least one attribute
// and returns its page and offset. Arena bytes are written once, in
// order, so the fresh link and count are already zero.
func (st *store) open() (*arenaPage, int) {
	if st.off+segHeader+maxAttrLen > arenaPageLen {
		if len(st.pages) == arenaMaxPages {
			panic("trace: attribute arena full: a tracer addresses at most 4 GiB of attributes")
		}
		st.pages = append(st.pages, new(arenaPage))
		st.off = 0
		if len(st.pages) == 1 {
			st.off = 1 // address 0 is the nil link
		}
	}
	seg := st.off
	st.off += segHeader
	return st.pages[len(st.pages)-1], seg
}

// addr is the arena address of offset off in the last page.
func (st *store) addr(off int) uint32 {
	return uint32(len(st.pages)-1)<<arenaPageBits | uint32(off)
}

// link returns the address of the segment after the one at a.
func (st *store) link(a uint32) uint32 {
	return binary.LittleEndian.Uint32(st.pages[a>>arenaPageBits][a&arenaPageMask:])
}

// push stores attrs as a fresh chain and returns its head (0 when attrs
// is empty). It writes one segment, or a linked run of them when attrs
// outgrow the current page or one count byte. attrs does not escape.
func (st *store) push(attrs []Attr) (head uint32) {
	var page *arenaPage // the open segment's page; it is the last page
	var seg int         // the open segment's offset in page
	for _, a := range attrs {
		if page == nil || page[seg+4] == segMaxAttrs || st.off+maxAttrLen > arenaPageLen {
			p, s := st.open()
			if page == nil {
				head = st.addr(s)
			} else {
				binary.LittleEndian.PutUint32(page[seg:], st.addr(s))
			}
			page, seg = p, s
		}
		page[seg+4]++
		st.off += binary.PutUvarint(page[st.off:], uint64(st.intern(a.Key))<<2|uint64(a.kind))
		switch a.kind {
		case attrInt:
			st.off += binary.PutVarint(page[st.off:], a.num)
		case attrFloat:
			binary.LittleEndian.PutUint64(page[st.off:], uint64(a.num))
			st.off += 8
		default:
			st.off += binary.PutUvarint(page[st.off:], uint64(st.intern(a.str)))
		}
	}
	return head
}

// extend links attrs after the chain from head, found by walking it
// (records keep no tail; chains hold a segment or two), and returns the
// chain's head.
func (st *store) extend(head uint32, attrs []Attr) uint32 {
	h := st.push(attrs)
	if head == 0 || h == 0 {
		return head | h
	}
	tail := head
	for next := st.link(tail); next != 0; next = st.link(tail) {
		tail = next
	}
	binary.LittleEndian.PutUint32(st.pages[tail>>arenaPageBits][tail&arenaPageMask:], h)
	return head
}

// attrVal is one decoded attribute: its key's intern index, its kind,
// and its value (an int, a float's bits, or a string's intern index).
type attrVal struct {
	val  uint64
	key  uint32
	kind uint8
}

// segment returns the page of the segment at a, the offset of its first
// attribute, its attribute count and the next segment's address.
func (st *store) segment(a uint32) (p *arenaPage, off, n int, next uint32) {
	p, off = st.pages[a>>arenaPageBits], int(a&arenaPageMask)
	return p, off + segHeader, int(p[off+4]), binary.LittleEndian.Uint32(p[off:])
}

// decode appends the attributes of the chain from head to dst, in
// write order.
func (st *store) decode(dst []attrVal, head uint32) []attrVal {
	for a := head; a != 0; {
		p, off, n, next := st.segment(a)
		for ; n > 0; n-- {
			var v attrVal
			v, off = decodeAttr(p, off)
			dst = append(dst, v)
		}
		a = next
	}
	return dst
}

// decodeAttr decodes the attribute at off in p and returns it and the
// offset after it.
func decodeAttr(p *arenaPage, off int) (v attrVal, next int) {
	k, n := binary.Uvarint(p[off:])
	off += n
	v.key, v.kind = uint32(k>>2), uint8(k&3)
	if v.kind == attrFloat {
		v.val = binary.LittleEndian.Uint64(p[off:])
		return v, off + 8
	}
	v.val, n = binary.Uvarint(p[off:])
	if v.kind == attrInt {
		v.val = v.val>>1 ^ -(v.val & 1) // undo the zigzag
	}
	return v, off + n
}

// format formats a decoded attribute's value, as Attr.Value does.
func (st *store) format(v attrVal) string {
	if v.kind == attrStr {
		return st.strs[v.val]
	}
	return Attr{num: int64(v.val), kind: v.kind}.Value()
}

// last returns the last attribute in the chain from head whose key is
// key. It decodes one attribute at a time, so it never allocates.
func (st *store) last(head uint32, key string) (found attrVal, ok bool) {
	k, known := st.strIdx[key]
	if !known {
		return attrVal{}, false
	}
	for a := head; a != 0; {
		p, off, n, next := st.segment(a)
		for ; n > 0; n-- {
			var v attrVal
			if v, off = decodeAttr(p, off); v.key == k {
				found, ok = v, true
			}
		}
		a = next
	}
	return found, ok
}

// value formats the last attribute with the given key, "" when absent.
func (st *store) value(head uint32, key string) string {
	v, ok := st.last(head, key)
	if !ok {
		return ""
	}
	return st.format(v)
}

// intValue returns the last attribute with the given key when it is an
// integer attribute.
func (st *store) intValue(head uint32, key string) (int64, bool) {
	v, ok := st.last(head, key)
	if !ok || v.kind != attrInt {
		return 0, false
	}
	return int64(v.val), true
}

// attrMap flattens the chain from head for export; on duplicate keys
// the last write wins, matching Span.Attr. nil for an empty chain.
func (st *store) attrMap(head uint32) map[string]string {
	if head == 0 {
		return nil
	}
	var buf [8]attrVal
	m := make(map[string]string)
	for _, v := range st.decode(buf[:0], head) {
		m[st.strs[v.key]] = st.format(v)
	}
	return m
}
