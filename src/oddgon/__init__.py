"""Translation surfaces from double odd n-gons: flows, shears, derivation."""
