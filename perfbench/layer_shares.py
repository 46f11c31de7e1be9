"""Host-time shares per layer from a CPU profile of a timed run.

    bash perfbench/run.sh --workload fig14-serde --seed 1 --seconds 10 --trace 0 \\
        --cpuprofile .bench_build/fig14-serde.prof
    python3 perfbench/layer_shares.py .bench_build/perfbench .bench_build/fig14-serde.prof

Each sample of the timed runs (Engine.Run, and the soak's simulator drain)
is charged to the leaf-most frame in a repository package, so runtime
work under it (allocation, GC assists) counts for that layer. Samples in
the benchmark's engine builds are left out. Samples with no benchmark
frame are the runtime's background work, mostly GC workers, and are
reported apart.
"""
import collections
import re
import subprocess
import sys

SEPARATOR = '-----------+-------------------------------------------------------'
UNIT_MS = {'s': 1000.0, 'ms': 1.0, 'us': 1e-3}


def stacks(binary, profile):
    out = subprocess.run(['go', 'tool', 'pprof', '-traces', binary, profile],
                         capture_output=True, text=True, check=True).stdout
    for block in out.split(SEPARATOR)[1:]:
        lines = [l.strip() for l in block.strip('\n').split('\n') if l.strip()]
        m = lines and re.match(r'([\d.]+)(s|ms|us)\s+(.*)', lines[0])
        if m:
            yield float(m.group(1)) * UNIT_MS[m.group(2)], [m.group(3)] + lines[1:]


def main(binary, profile):
    layers, funcs = collections.Counter(), collections.Counter()
    runs = builds = background = 0.0
    for ms, frames in stacks(binary, profile):
        ours = [f for f in frames if f.startswith('main.')]
        if not ours:
            background += ms
            continue
        if any(f.endswith('.engine') or '.setup' in f for f in ours):
            builds += ms
            continue
        runs += ms
        leaf = next((m for m in (re.match(r'rmmap/internal/(\w+)\.(.*)', f) for f in frames) if m), None)
        layer = leaf.group(1) if leaf else 'runtime'
        layers[layer] += ms
        name = re.sub(r'\.func\d+(\.\d+)?$', '', leaf.group(2)) if leaf else frames[0]
        funcs[layer + '.' + name] += ms
    print(f'timed runs {runs / 1000:.2f} s, engine builds {builds / 1000:.2f} s, '
          f'background runtime {background / 1000:.2f} s '
          f'({100 * background / (runs + background):.1f}% of runs plus background)')
    print('share of timed-run samples by layer:')
    for name, ms in layers.most_common():
        print(f'  {name:12s} {100 * ms / runs:5.1f}%')
    print('top functions:')
    for name, ms in funcs.most_common(15):
        print(f'  {name:56s} {100 * ms / runs:5.1f}%')


if __name__ == '__main__':
    if len(sys.argv) != 3:
        sys.exit('usage: layer_shares.py <perfbench binary> <cpu profile>')
    main(sys.argv[1], sys.argv[2])
