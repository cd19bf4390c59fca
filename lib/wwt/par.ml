let default_domains ~nodes = max 1 (min (Jobs.default_jobs ()) nodes)
