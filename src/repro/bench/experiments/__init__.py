"""One experiment module per paper table/figure."""
