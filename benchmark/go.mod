module graphkeys/benchmark

go 1.24

require graphkeys v0.0.0

replace graphkeys => ../
