package checkpoint

// The checkpoint-generation manifest: the host-side index of which
// complete checkpoint generations exist on the RAID, in age order, with
// a CRC for every member chunk. The recovery ladder (DESIGN.md §16)
// keeps the newest K generations and uses the manifest to validate a
// chunk before decoding it; when the newest generation is corrupt or
// torn it falls back to the next older one. The manifest itself rides
// the same integrity format as the field checkpoints — magic, version,
// big-endian payload, CRC-32C trailer — and its decoder keeps the same
// typed-error and bounded-allocation contract (FuzzManifestDecode).

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// ManifestMagic identifies a manifest stream ("QCDOCMAN").
const ManifestMagic = 0x5143444F434D414E

// ManifestVersion of the manifest format.
const ManifestVersion = 1

// Bounds on a decoded manifest: far beyond any simulated machine here,
// tight enough that a corrupt-but-plausible header can never force an
// allocation far larger than the input it came with.
const (
	maxGenerations   = 4096
	maxManifestRanks = 1 << 16
)

// Generation is one complete checkpoint generation: every rank's chunk
// of one (attempt, iteration) set, with each chunk's CRC-32C at seal
// time.
type Generation struct {
	// Attempt and Iter identify the set (chunk paths embed both).
	Attempt int
	Iter    int
	// CRCs holds the raw-blob checksum of each rank's chunk, in rank
	// order; its length is the generation's rank count.
	CRCs []uint32
}

// Manifest indexes the retained checkpoint generations, oldest first.
type Manifest struct {
	Generations []Generation
}

// BlobCRC is the raw checksum of a stored chunk blob, as recorded in
// the manifest at seal time: recovery compares it before paying for a
// full decode, and a mismatch convicts the chunk without touching the
// inner format.
func BlobCRC(b []byte) uint32 {
	return crc32.Checksum(b, castagnoli)
}

// WriteManifest serializes a manifest: the header, then one record
// per generation, each appended into one reused buffer.
func WriteManifest(w io.Writer, m *Manifest) error {
	cw := crcWriter{w: w}
	b := binary.BigEndian.AppendUint64(make([]byte, 0, siteBytes), ManifestMagic)
	b = binary.BigEndian.AppendUint32(b, ManifestVersion)
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.Generations)))
	if _, err := cw.Write(b); err != nil {
		return err
	}
	for _, g := range m.Generations {
		b = binary.BigEndian.AppendUint32(b[:0], uint32(g.Attempt))
		b = binary.BigEndian.AppendUint32(b, uint32(g.Iter))
		b = binary.BigEndian.AppendUint32(b, uint32(len(g.CRCs)))
		for _, crc := range g.CRCs {
			b = binary.BigEndian.AppendUint32(b, crc)
		}
		if _, err := cw.Write(b); err != nil {
			return err
		}
	}
	_, err := w.Write(binary.BigEndian.AppendUint32(b[:0], cw.crc))
	return err
}

// ReadManifest deserializes a manifest, verifying the CRC. Errors are
// typed (ErrBadMagic, ErrBadHeader, ErrBadCRC, or an io error from a
// short read); allocation stays proportional to the input actually
// consumed, never to a corrupt header's claims.
func ReadManifest(r io.Reader) (*Manifest, error) {
	d := &decoder{r: r}
	c, err := d.next(8)
	if err != nil {
		return nil, err
	}
	if c.u64() != ManifestMagic {
		return nil, ErrBadMagic
	}
	if c, err = d.next(8); err != nil {
		return nil, err
	}
	if version := c.u32(); version != ManifestVersion {
		return nil, fmt.Errorf("checkpoint: unsupported manifest version %d", version)
	}
	count := c.u32()
	if count > maxGenerations {
		return nil, fmt.Errorf("%w: implausible generation count %d", ErrBadHeader, count)
	}
	m := &Manifest{}
	for i := uint32(0); i < count; i++ {
		if c, err = d.next(12); err != nil {
			return nil, err
		}
		attempt, iter, ranks := c.u32(), c.u32(), c.u32()
		if ranks > maxManifestRanks {
			return nil, fmt.Errorf("%w: implausible rank count %d", ErrBadHeader, ranks)
		}
		crcs := make([]uint32, 0, min(int(ranks), allocChunk))
		for j := uint32(0); j < ranks; j++ {
			if c, err = d.next(4); err != nil {
				return nil, err
			}
			crcs = append(crcs, c.u32())
		}
		m.Generations = append(m.Generations, Generation{
			Attempt: int(attempt), Iter: int(iter), CRCs: crcs,
		})
	}
	sum := d.crc
	stored, err := d.trailer()
	if err != nil {
		return nil, err
	}
	if stored != sum {
		return nil, fmt.Errorf("%w: stored %#x computed %#x", ErrBadCRC, stored, sum)
	}
	return m, nil
}
