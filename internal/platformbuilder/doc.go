// Package platformbuilder composes clusters programmatically — the
// code-as-configuration layer (mgpusim-style) over platform.ClusterConfig.
// A fluent Builder chains rack counts, machine placement, ToR/spine link
// classes, per-rack or cross-rack byte fabrics, straggler multipliers,
// and chaos plans into a platform.ClusterConfig; named recipes ("flat",
// "two-rack", "spine-leaf", "spine-leaf-tcp", "straggler") make common
// shapes addressable from the CLIs' -topology flag, and a JSON loader
// with positional validation covers everything else. One-rack builds with
// no topology semantics compile to a flat config with a nil topology, so
// they stay byte-identical to the classic flat cluster.
// See PLATFORMS.md for the cookbook and DESIGN.md §14 for the cost model.
package platformbuilder
