package core

// ImagePages is the number of pages an exported image records, for the
// external test package's clone-cost floor.
func ImagePages(img *SnapshotImage) int { return len(img.desc.VPNs) }
