module groundhog/bench/e2e

go 1.24

require groundhog v0.0.0

replace groundhog => ../..
