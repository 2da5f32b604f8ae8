algebra Q(sqrt -1)
tail kfree 2
