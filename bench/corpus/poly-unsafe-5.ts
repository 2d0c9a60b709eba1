# expect: unsafe
system poly-unsafe-5
var x : real [0, 6.25]
init x >= 0.6000000000000001 and x <= 0.7000000000000001
trans x' = x + 0.2 * (1 * x - 0.16 * x^3)
prop x <= 1.75
